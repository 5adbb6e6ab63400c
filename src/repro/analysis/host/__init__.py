"""Host-level static analysis: the simulator analyzing its own source.

The guest-facing packages (`repro.analysis.cfg`/`values`/...) reason about
the programs the simulator *runs*; this subpackage reasons about the
simulator *itself*.  It parses the Python source of the pipeline and core
packages into a normalized effect IR (:mod:`repro.analysis.host.ir`),
computes interprocedural per-stage effect summaries
(:mod:`repro.analysis.host.effects`), and checks the fast engine's inlined
loop against the reference stages under the declared delegation boundary
(:mod:`repro.analysis.host.driftcheck`).  The AST determinism rules are
part of the same framework (:mod:`repro.analysis.host.rules`); everything
is orchestrated by :mod:`repro.analysis.host.selfcheck` behind the
``repro selfcheck`` CLI target.
"""

from repro.analysis.host.diagnostics import HostDiagnostic
from repro.analysis.host.driftcheck import run_driftcheck
from repro.analysis.host.effects import EffectModel, SourceTree
from repro.analysis.host.selfcheck import SelfCheckReport, run_selfcheck

__all__ = [
    "EffectModel",
    "HostDiagnostic",
    "SelfCheckReport",
    "SourceTree",
    "run_driftcheck",
    "run_selfcheck",
]
