"""The declared fast/reference engine boundary.

:class:`~repro.pipeline.fast.FastSMTCore` replicates the reference
stages of :meth:`SMTCore.step` inside one inlined loop and *delegates*
the rare, divergence-sensitive paths back to the reference
implementation.  This module is the machine-readable statement of that
contract: which reference methods the fast loop is allowed to call
instead of replicating, which state paths only the fast engine writes,
and how the two engines' calls into opaque components correspond.

``repro selfcheck`` (:mod:`repro.analysis.host.driftcheck`) enforces the
spec both ways: a reference-stage state write that is neither replicated
in the fast loop nor reachable through a delegation listed here is drift
(DRIFT001), a fast call into reference code *not* listed here is a
boundary bypass (DRIFT003), and an entry here that no longer matches the
source is staleness (DRIFT005).  Keep this file in sync with
``docs/fast-path.md``'s fallback-rule section.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DelegationPoint:
    """One reference entry point the fast loop may call.

    ``covers`` says whether the writes reachable through the target
    count as fast-path coverage for the drift check.  The whole-run
    fallback (``SMTCore.run``) is declared so calling it is not a
    boundary bypass, but it must **not** cover anything: it only runs
    when the fast loop is abandoned entirely, so counting it would let
    every dropped fast-loop effect hide behind the fallback.
    """

    target: str  # "self.<method>" or "<Class>.<method>" as called
    reason: str
    covers: bool = True


#: Reference methods the fast loop calls instead of replicating.  Every
#: state path these reach counts as covered for the drift check.
DELEGATIONS: tuple[DelegationPoint, ...] = (
    DelegationPoint(
        "self._split",
        "rename-time group splitting: divergence bookkeeping and RST "
        "taint propagation are rare and subtle",
    ),
    DelegationPoint(
        "self._handle_control",
        "control instructions: prediction, RAS, divergence detection, "
        "and the sync-FSM transitions",
    ),
    DelegationPoint(
        "self._handle_hint",
        "software hint park/release of fetch groups",
    ),
    DelegationPoint(
        "self._verify_lvip",
        "LVIP verification: mispredict squash, per-class register "
        "splitting, RST pair clearing",
    ),
    DelegationPoint(
        "self._final_checks",
        "end-of-run invariant sweep, shared with the reference engine",
    ),
    DelegationPoint(
        "SMTCore.run",
        "full reference-loop fallback when a non-fast-capable observer "
        "is attached",
        covers=False,
    ),
)

#: State paths the fast loop must replicate **itself**, even though the
#: declared delegations also reach them.  The delegations touch these
#: only on rare paths (splits, mispredicts, control); the per-group
#: hot-path update lives in the fast loop, so losing the inline write is
#: drift that path-level delegation coverage would otherwise mask.
REPLICATED_PATHS: dict[str, str] = {
    "rst._bits": "per-group RST sharing-word update at rename",
    "rst._taint": "taint propagation alongside every sharing update",
    "rst.updates": "RST update counter (sharing telemetry)",
    "lvip.predictions": "per-load LVIP prediction counter at rename",
    "lvip.predicted_identical": "per-load identical-prediction counter",
    "lvip.site_checks": "per-site LVIP check counter at verification",
}

#: State paths only the fast engine writes (its private bookkeeping).
#: Anything else the fast loop writes must also be written by a
#: reference stage.
FAST_ONLY_PATHS: dict[str, str] = {
    "_pos": "cursor into the pre-decoded functional record stream",
    "ran_fast_loop": "telemetry flag proving the fast loop was used",
    "trace": "optional per-cycle fetch/commit trace sink",
    "obs.now": "keeps flight-recorder timestamps current in-loop",
}

#: Opaque-component calls the fast loop makes through a different entry
#: point than the reference: reference callee -> fast callees that
#: implement it.
CALL_REPLICATIONS: dict[str, tuple[str, ...]] = {
    # The reference ticks the whole hierarchy; the fast loop hoists the
    # MSHR and ticks it directly (the only per-cycle hierarchy work).
    "hierarchy.tick": ("hierarchy.mshr.tick",),
}

#: Component roots whose opaque calls are matched call-for-call between
#: the engines (their source is outside the analyzed module set).
COMPONENT_CALL_ROOTS: tuple[str, ...] = (
    "hierarchy",
    "bpred",
    "btb",
    "oracles",
    "trace_model",
)

#: Section markers inside ``FastSMTCore._run_fast``: stage name -> the
#: text of the ``# ---- <text>`` banner that opens its inlined section.
#: The drift check requires the banners to appear in reference stage
#: order and each stage's distinctive writes to land in its own section.
STAGE_SECTION_MARKERS: dict[str, str] = {
    "commit_stage": "commit",
    "writeback_stage": "writeback",
    "lsq.process_loads": "LSQ load phase",
    "issue_stage": "issue",
    "rename_stage": "rename",
    "fetch_stage": "fetch",
}
