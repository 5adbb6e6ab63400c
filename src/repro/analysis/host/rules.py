"""The simulator determinism lint (SIM00x), as host-analysis rules.

The rules run under ``repro selfcheck``, share the
:class:`HostDiagnostic` shape (and therefore the baseline/JSON
machinery), and are covered by the strict type gate.

The cycle-level model must be bit-reproducible across runs and Python
versions.  That contract is easy to break silently, so the rules flag:

* **SIM001** — wall-clock reads: ``time.time()``, ``time.monotonic()``,
  ``time.perf_counter()``, ``datetime.now()``/``utcnow()``/``today()``.
* **SIM002** — unseeded module-level ``random`` use.  Explicitly seeded
  ``random.Random(seed)`` instances are fine.
* **SIM003** — iteration over syntactically unordered sets unless
  wrapped in ``sorted(...)``.
* **SIM004** — observer emission not guarded by the precomputed
  ``tracing`` flag (idiom: ``if self.obs.tracing: self.obs.emit(...)``).
* **SIM005** — order-dependent removal: ``dict.popitem()`` and
  no-argument ``.pop()``.  Deterministic stack pops carry
  ``# simlint: ignore`` at the call site.
* **SIM006** — mutable class-level defaults (``class X: cache = {}``)
  in simulation code.  Campaign workers import these modules in every
  worker process; shared mutable class state either silently diverges
  between workers or — under fork start methods — leaks warm state from
  the parent, making results depend on worker scheduling.

Suppression:

* ``# simlint: ignore`` on the offending line suppresses that line.
* ``# simlint: disable=SIM001,SIM005`` anywhere in a file disables the
  listed rules for the whole file (unknown ids raise ``ValueError``, so
  a typo cannot silently disable nothing).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.analysis.host.diagnostics import HOST_RULES, HostDiagnostic

#: Path fragments the determinism contract covers (POSIX-style).
SCOPED_DIRS = ("repro/pipeline", "repro/core", "repro/mem")

_WALLCLOCK_TIME = {"time", "monotonic", "perf_counter", "process_time"}
_WALLCLOCK_DT = {"now", "utcnow", "today"}
_RANDOM_MODULE_OK = {"Random", "SystemRandom"}

IGNORE_MARK = "# simlint: ignore"
_DISABLE_PRAGMA = re.compile(r"#\s*simlint:\s*disable=([A-Z0-9, ]+)")

#: Immutable-literal types allowed as class-level defaults.
_MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "deque", "Counter"}


def file_disabled_rules(source_lines: list[str]) -> set[str]:
    """Rules disabled file-wide by ``# simlint: disable=...`` pragmas.

    Raises ``ValueError`` for unknown rule ids so a typo in a pragma is
    an error rather than a silent no-op.
    """
    disabled: set[str] = set()
    for line in source_lines:
        match = _DISABLE_PRAGMA.search(line)
        if not match:
            continue
        for rule in match.group(1).split(","):
            rule = rule.strip()
            if not rule:
                continue
            if rule not in HOST_RULES or not rule.startswith("SIM"):
                raise ValueError(f"unknown simlint rule in pragma: {rule!r}")
            disabled.add(rule)
    return disabled


def _attr_chain(node: ast.AST) -> list[str]:
    """['self', 'obs', 'emit'] for ``self.obs.emit`` (best effort)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    parts.reverse()
    return parts


def _mentions_tracing(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "tracing":
            return True
        if isinstance(sub, ast.Name) and sub.id == "tracing":
            return True
    return False


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, source_lines: list[str]) -> None:
        self.path = path
        self.lines = source_lines
        self.disabled = file_disabled_rules(source_lines)
        self.findings: list[HostDiagnostic] = []
        # Depth of enclosing `if ...tracing...` guards.
        self._tracing_guard = 0
        self._class_depth = 0

    def _emit(
        self, node: ast.AST, rule: str, message: str, subject: str
    ) -> None:
        if rule in self.disabled:
            return
        line = getattr(node, "lineno", 0)
        if 0 < line <= len(self.lines) and IGNORE_MARK in self.lines[line - 1]:
            return
        self.findings.append(
            HostDiagnostic(rule, self.path, line, message, subject=subject)
        )

    # ------------------------------------------------------------- SIM006
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_depth += 1
        for stmt in node.body:
            value: ast.expr | None = None
            target_name: str | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    target_name = target.id
                    value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name):
                    target_name = stmt.target.id
                    value = stmt.value
            if (
                value is not None
                and target_name is not None
                and not target_name.isupper()  # frozen module constants
                and _is_mutable_default(value)
            ):
                self._emit(
                    stmt,
                    "SIM006",
                    f"mutable class-level default {node.name}.{target_name} "
                    "is shared module state in every worker process; build "
                    "it in __init__ or make it immutable",
                    subject=f"{node.name}.{target_name}",
                )
        self.generic_visit(node)

    # ------------------------------------------------------------- SIM004
    def visit_If(self, node: ast.If) -> None:
        guarded = _mentions_tracing(node.test)
        if guarded:
            self._tracing_guard += 1
        for child in node.body:
            self.visit(child)
        if guarded:
            self._tracing_guard -= 1
        for child in node.orelse:
            self.visit(child)

    # ------------------------------------------------------------- SIM003
    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self._emit(
                node.iter,
                "SIM003",
                "iteration over an unordered set; wrap in sorted(...)",
                subject="for-set",
            )
        self.generic_visit(node)

    def _check_comprehensions(self, node: ast.AST) -> None:
        generators = getattr(node, "generators", [])
        for comp in generators:
            if _is_set_expr(comp.iter):
                self._emit(
                    comp.iter,
                    "SIM003",
                    "comprehension over an unordered set; wrap in "
                    "sorted(...)",
                    subject="comp-set",
                )
        self.generic_visit(node)

    visit_ListComp = _check_comprehensions
    visit_SetComp = _check_comprehensions
    visit_DictComp = _check_comprehensions
    visit_GeneratorExp = _check_comprehensions

    # ------------------------------------------------ SIM001/002/004 calls
    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        if len(chain) >= 2:
            head, tail = chain[0], chain[-1]
            if head == "time" and tail in _WALLCLOCK_TIME:
                self._emit(
                    node,
                    "SIM001",
                    f"wall-clock read time.{tail}() breaks determinism",
                    subject=f"time.{tail}",
                )
            elif head == "datetime" and tail in _WALLCLOCK_DT:
                self._emit(
                    node,
                    "SIM001",
                    f"wall-clock read datetime...{tail}() breaks "
                    "determinism",
                    subject=f"datetime.{tail}",
                )
            elif head == "random" and tail not in _RANDOM_MODULE_OK:
                self._emit(
                    node,
                    "SIM002",
                    f"module-level random.{tail}() is unseeded; use a "
                    "random.Random(seed) instance",
                    subject=f"random.{tail}",
                )
            if tail == "emit" and self._tracing_guard == 0:
                self._emit(
                    node,
                    "SIM004",
                    f"{'.'.join(chain)}(...) is not guarded by the "
                    "precomputed tracing flag (idiom: "
                    "`if self.obs.tracing:`)",
                    subject=".".join(chain),
                )
        # SIM005: order-dependent removals.  popitem() is always suspect;
        # a no-argument .pop() is set.pop() unless the receiver is
        # provably a sequence — which the call site asserts with an
        # ignore mark, keeping the burden of proof on the code.
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            if method == "popitem":
                self._emit(
                    node,
                    "SIM005",
                    "dict.popitem() removal order depends on insertion "
                    "history; pop an explicit key instead",
                    subject="popitem",
                )
            elif method == "pop" and not node.args and not node.keywords:
                self._emit(
                    node,
                    "SIM005",
                    "no-argument .pop() removes an arbitrary element if "
                    "the receiver is a set; pop an explicit index/key, or "
                    "mark a deterministic stack pop with the ignore "
                    "comment",
                    subject="bare-pop",
                )
        self.generic_visit(node)

    # ------------------------------------------------------------ imports
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            bad = [
                alias.name
                for alias in node.names
                if alias.name not in _RANDOM_MODULE_OK
            ]
            if bad:
                self._emit(
                    node,
                    "SIM002",
                    "importing unseeded random function(s) "
                    f"{', '.join(bad)}; use a random.Random(seed) "
                    "instance",
                    subject=f"import:{','.join(bad)}",
                )
        self.generic_visit(node)


def in_scope(path: Path) -> bool:
    """Is *path* inside the directories the contract covers?"""
    posix = path.resolve().as_posix()
    return any(fragment in posix for fragment in SCOPED_DIRS)


def lint_source(path: str, source: str) -> list[HostDiagnostic]:
    """Run the SIM rules over one source string."""
    tree = ast.parse(source, filename=path)
    linter = _Linter(path, source.splitlines())
    linter.visit(tree)
    linter.findings.sort(key=lambda d: d.line)
    return linter.findings


def lint_file(path: Path) -> list[HostDiagnostic]:
    """Lint one Python source file; returns its findings."""
    return lint_source(str(path), path.read_text(encoding="utf-8"))


def lint_paths(
    paths: list[Path], all_rules: bool = False
) -> list[HostDiagnostic]:
    """Lint files/trees; without *all_rules*, only scoped files are
    checked."""
    findings: list[HostDiagnostic] = []
    for root in paths:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in files:
            if not all_rules and not in_scope(file):
                continue
            findings.extend(lint_file(file))
    return findings
