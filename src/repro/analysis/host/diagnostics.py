"""Structured findings shared by every host-level checker.

The guest linter (`repro.analysis.lint`) anchors its diagnostics to guest
PCs; host diagnostics anchor to ``file:line`` in the simulator's own
source.  Every finding carries a *fingerprint* — a stable identity built
from the rule id and the finding's subject (a state path, a callee, a
source construct) but **not** its line number, so a pinned baseline
survives unrelated edits that merely move code around.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

#: Rule catalogue: id -> (severity, short description).  DRIFT rules come
#: from the clone-consistency checker; SIM rules are the simulator
#: determinism lint (:mod:`repro.analysis.host.rules`).
HOST_RULES: dict[str, tuple[str, str]] = {
    "DRIFT001": (
        "error",
        "reference stage writes a state path the fast loop neither "
        "replicates nor delegates",
    ),
    "DRIFT002": (
        "error",
        "fast loop writes a state path no reference stage writes",
    ),
    "DRIFT003": (
        "error",
        "fast loop calls a reference method outside the declared "
        "delegation boundary",
    ),
    "DRIFT004": (
        "error",
        "fast loop replicates stage effects out of reference stage order",
    ),
    "DRIFT005": (
        "warning",
        "boundary spec is stale: a declared entry no longer matches the "
        "source",
    ),
    "DRIFT006": (
        "warning",
        "stage docstring effect annotation disagrees with the computed "
        "effect summary",
    ),
    "SIM001": ("error", "wall-clock time source in simulation code"),
    "SIM002": ("error", "unseeded global random in simulation code"),
    "SIM003": ("error", "iteration over a set (nondeterministic order)"),
    "SIM004": ("error", "observer emit not guarded by a tracing check"),
    "SIM005": ("warning", "popitem/pop on an unordered container"),
    "SIM006": (
        "error",
        "mutable class-level default shared across worker processes",
    ),
}


@dataclass(frozen=True)
class HostDiagnostic:
    """One finding of a host-level checker, with file:line provenance."""

    rule: str
    file: str
    line: int
    message: str
    #: Stable identity of the finding's subject (state path, callee name,
    #: source construct) independent of its current line number.
    subject: str
    suppressed: bool = field(default=False)

    @property
    def severity(self) -> str:
        return HOST_RULES.get(self.rule, ("error", ""))[0]

    @property
    def fingerprint(self) -> str:
        """Baseline identity: rule + file + subject, line-independent."""
        raw = f"{self.rule}|{self.file}|{self.subject}"
        return hashlib.sha1(raw.encode()).hexdigest()[:16]

    def format(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.file}:{self.line}: {self.rule} {self.message}{tag}"

    def to_json(self) -> dict[str, Any]:
        """The machine-readable shape shared by ``selfcheck --json`` and
        ``analyze --json``."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "file": self.file,
            "line": self.line,
            "message": self.message,
            "subject": self.subject,
            "fingerprint": self.fingerprint,
            "suppressed": self.suppressed,
        }
