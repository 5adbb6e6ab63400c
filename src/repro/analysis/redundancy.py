"""Static redundancy oracle: predict mergeable fractions before simulating.

MMT's fetch merge (PAPER.md §3) exploits that SPMD threads run the *same
program image*: instructions merge whenever the threads sit at the same PC,
and registers stay RST-shared while threads write identical values.  Both
phenomena are statically predictable.  This module drives the value-level
analysis of :mod:`repro.analysis.values` over a program's CFG and produces
*sound upper bounds*:

* ``merge_upper_bound`` — an upper bound on the dynamic fetch-merge
  fraction (``SimStats.mode_breakdown()["merge"]``).  Only *provable*
  control divergence is subtracted: a conditional branch whose outcome is
  guaranteed to differ between at least two thread ids forces the threads
  onto different paths until the branch's immediate postdominator, and the
  lighter of the two sides can never fetch-merge.  Everything the analysis
  cannot prove divergent stays inside the bound, so the bound can only be
  loose, never unsound.
* ``rst_upper_bound`` — an upper bound on the final RST
  ``sharing_fraction()``: registers whose exit value is a provably
  injective function of the thread id (e.g. ``tid`` itself, or the strided
  stack pointer) must end pairwise-different, so at most the remaining
  registers can still be shared.  Loop-widened values (whose precision
  assumes lockstep iteration counts) are excluded from this set.
* ``lvip_hit_rate_upper_bound`` plus the per-PC sets
  ``lvip_eligible_pcs`` / ``lvip_must_identical_pcs`` — the value-level
  LVIP contract.  The LVIP (``repro.core.lvip``) is a sticky-optimistic
  predictor: the first check of any PC predicts *identical*, and only a
  PC that has actually mispredicted stops hitting.  Any static ratio
  bound below 1.0 would therefore be unsound for a workload whose first
  checks all hit, so the ratio bound is the trivial 1.0 whenever the job
  type consults the LVIP at all, and 0.0 when it never does
  (multi-threaded jobs bypass the predictor entirely).  The *teeth* are
  per-PC: every dynamically checked PC must be a reachable load
  (``lvip_eligible_pcs``), and no load the memory model proves
  must-identical (address interval entirely inside the never-stored,
  overlay-identical image region) may ever mispredict
  (``lvip_must_identical_pcs``).

Loop bodies are weighted by ``LOOP_WEIGHT ** depth`` when converting block
sets into fractions — a static stand-in for execution frequency.  The
*bounds* above do not depend on that heuristic being accurate; it only
sharpens the descriptive fractions and reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import CFG
from repro.analysis.dom import VIRTUAL_EXIT, loop_depths, postdominators
from repro.analysis.values import (
    MemoryModel,
    analyze_values_cfg,
    exact_affine_of,
    is_varying,
    regions_from_symbols,
)
from repro.core.config import WorkloadType
from repro.isa.program import Program
from repro.isa.registers import NUM_ARCH_REGS, reg_name
from repro.pipeline.stats import SimStats
from repro.workloads.generator import WorkloadBuild

#: Static execution-frequency multiplier per loop-nesting level.
LOOP_WEIGHT = 8

#: Block classification labels.
IDENTICAL = "identical"
INPUT_DIVERGENT = "input-divergent"
CONTROL_DIVERGENT = "control-divergent"
UNREACHABLE = "unreachable"


def _divergent_side(
    cfg: CFG, start: int, stop: int | None, branch_bid: int
) -> set[int]:
    """Blocks reachable from *start* before *stop* (the ipdom), excluding it."""
    if start == stop:
        return set()
    seen = {start}
    stack = [start]
    while stack:
        for succ in cfg.blocks[stack.pop()].succs:
            if succ == stop or succ == branch_bid or succ in seen:
                continue
            seen.add(succ)
            stack.append(succ)
    return seen


# ----------------------------------------------------------------- reports
@dataclass
class OracleReport:
    """Static redundancy classification of one program under *nctx* threads."""

    name: str
    nctx: int
    #: Per-block label: identical / input-divergent / control-divergent /
    #: unreachable.
    block_classes: list[str]
    #: Loop-weighted instruction fraction per class (reachable blocks only).
    identical_fraction: float
    input_divergent_fraction: float
    control_divergent_fraction: float
    #: Sound upper bound on the dynamic fetch-merge fraction.
    merge_upper_bound: float
    #: Sound upper bound on the final RST sharing fraction.
    rst_upper_bound: float
    #: PCs of branches whose outcome provably differs between threads.
    must_diverge_branches: list[int] = field(default_factory=list)
    #: PCs of branches that may (data-dependently) diverge.
    may_diverge_branches: list[int] = field(default_factory=list)
    #: Registers whose exit value is provably injective in the thread id.
    diverging_exit_regs: frozenset[int] = frozenset()
    #: Does this job type consult the LVIP at all?  Multi-threaded jobs
    #: never do; multi-execution, message-passing and Limit-study jobs do.
    lvip_eligible: bool = False
    #: Sound upper bound on the dynamic LVIP hit rate
    #: ((checks - mispredicts) / checks).  1.0 when eligible (the sticky
    #: predictor's first check per PC always hits), 0.0 when the job
    #: never consults the predictor.
    lvip_hit_rate_upper_bound: float = 0.0
    #: Every load PC an LVIP check could legally target.
    lvip_eligible_pcs: frozenset[int] = frozenset()
    #: Load PCs that can never mispredict: their address interval lies
    #: entirely inside the overlay-identical, never-stored image region.
    lvip_must_identical_pcs: frozenset[int] = frozenset()
    #: Loop-weighted fraction of load sites proven must-identical.
    lvip_must_identical_fraction: float = 0.0
    #: Natural-loop headers where loop-uniformity widening fired.
    widened_loop_headers: int = 0

    def validate_against(
        self, stats: SimStats, rst_sharing: float | None = None
    ) -> list[str]:
        """Cross-check the static bounds against one dynamic run.

        Returns human-readable disagreement messages (empty = consistent).
        A non-empty result means either the workload violates the analysis
        assumptions or the simulator (or the oracle) has a bug.
        """
        problems: list[str] = []
        measured_merge = stats.mode_breakdown().get("merge", 0.0)
        if measured_merge > self.merge_upper_bound + 1e-9:
            problems.append(
                f"{self.name}: dynamic merge fraction {measured_merge:.4f} "
                f"exceeds the static upper bound {self.merge_upper_bound:.4f}"
            )
        if rst_sharing is None:
            rst_sharing = stats.final_rst_sharing
        if rst_sharing is not None and rst_sharing > self.rst_upper_bound + 1e-9:
            regs = ", ".join(reg_name(r) for r in sorted(self.diverging_exit_regs))
            problems.append(
                f"{self.name}: dynamic RST sharing {rst_sharing:.4f} exceeds "
                f"the static upper bound {self.rst_upper_bound:.4f} "
                f"(must-diverge regs: {regs or 'none'})"
            )
        problems.extend(self._validate_lvip(stats))
        return problems

    def _validate_lvip(self, stats: SimStats) -> list[str]:
        problems: list[str] = []
        measured_rate = stats.lvip_hit_rate()
        if measured_rate > self.lvip_hit_rate_upper_bound + 1e-9:
            problems.append(
                f"{self.name}: dynamic LVIP hit rate {measured_rate:.4f} "
                f"exceeds the static upper bound "
                f"{self.lvip_hit_rate_upper_bound:.4f}"
            )
        checked = frozenset(stats.lvip_site_checks)
        stray = checked - self.lvip_eligible_pcs
        if stray:
            pcs = ", ".join(str(pc) for pc in sorted(stray))
            problems.append(
                f"{self.name}: LVIP checked PCs outside the static eligible "
                f"load set: {pcs}"
            )
        mispredicted = frozenset(stats.lvip_site_mispredicts)
        broken = mispredicted & self.lvip_must_identical_pcs
        if broken:
            pcs = ", ".join(str(pc) for pc in sorted(broken))
            problems.append(
                f"{self.name}: LVIP mispredicted loads the oracle proved "
                f"must-identical: {pcs}"
            )
        return problems

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}: nctx={self.nctx} "
            f"identical={self.identical_fraction:.2f} "
            f"input-div={self.input_divergent_fraction:.2f} "
            f"control-div={self.control_divergent_fraction:.2f} "
            f"merge<={self.merge_upper_bound:.3f} "
            f"rst<={self.rst_upper_bound:.3f} "
            f"lvip<={self.lvip_hit_rate_upper_bound:.1f}"
        )


def analyze_program(
    program: Program,
    nctx: int,
    *,
    sp_divergent: bool = True,
    name: str | None = None,
    memory: MemoryModel | None = None,
    lvip_eligible: bool | None = None,
    tid_value: int | None = None,
) -> OracleReport:
    """Run the value-level divergence analysis over one program image.

    *sp_divergent* models the multi-threaded job convention of strided
    per-thread stack tops; multi-execution and message-passing jobs give
    every context the same stack top.  *memory* supplies the data-image
    model used to prove loads must-identical; *lvip_eligible* marks
    whether the job type consults the LVIP (default: every non-MT
    convention, i.e. exactly when *sp_divergent* is off); *tid_value*
    pins the TID opcode (Limit-study clones all run as tid 0).
    """
    cfg = CFG.from_program(program)
    return analyze_cfg(
        cfg,
        nctx,
        sp_divergent=sp_divergent,
        name=name or program.name,
        memory=memory,
        lvip_eligible=lvip_eligible,
        tid_value=tid_value,
    )


def analyze_cfg(
    cfg: CFG,
    nctx: int,
    *,
    sp_divergent: bool = True,
    name: str = "program",
    memory: MemoryModel | None = None,
    lvip_eligible: bool | None = None,
    tid_value: int | None = None,
) -> OracleReport:
    """:func:`analyze_program` over an already-built CFG."""
    if lvip_eligible is None:
        lvip_eligible = not sp_divergent
    va = analyze_values_cfg(
        cfg,
        nctx,
        sp_divergent=sp_divergent,
        memory=memory,
        tid_value=tid_value,
    )
    reachable = va.reachable
    depths = loop_depths(cfg)
    ipdom = postdominators(cfg)

    def weight(bid: int) -> int:
        return len(cfg.blocks[bid]) * LOOP_WEIGHT ** depths[bid]

    total_weight = sum(weight(b) for b in reachable) or 1

    # ------------------------------------------------ branch classification
    must_diverge: list[int] = []
    may_diverge: list[int] = []
    control_divergent: set[int] = set()
    unmergeable: set[int] = set()
    for block in cfg.blocks:
        if block.bid not in reachable:
            continue
        klass = va.branch_classes.get(block.last)
        if klass is None or klass == "uniform":
            continue
        (must_diverge if klass == "must" else may_diverge).append(block.last)
        stop = ipdom[block.bid]
        stop_bid = stop if stop is not None and stop != VIRTUAL_EXIT else None
        sides = [
            _divergent_side(cfg, succ, stop_bid, block.bid)
            for succ in block.succs
        ]
        for side in sides:
            control_divergent |= side
        if klass == "must" and len(sides) == 2:
            # The lighter side can never merge while threads are split.
            lighter = min(sides, key=lambda s: sum(weight(b) for b in s))
            unmergeable |= lighter

    # ------------------------------------------------- block classification
    classes: list[str] = []
    weights = {IDENTICAL: 0, INPUT_DIVERGENT: 0, CONTROL_DIVERGENT: 0}
    for block in cfg.blocks:
        if block.bid not in reachable:
            classes.append(UNREACHABLE)
            continue
        if block.bid in control_divergent:
            label = CONTROL_DIVERGENT
        else:
            regs = list(va.block_in[block.bid])
            label = IDENTICAL
            for pc in block.pcs():
                inst = cfg.instructions[pc]
                if any(is_varying(regs[r]) for r in inst.srcs):
                    label = INPUT_DIVERGENT
                    break
                va.apply(pc, regs)
                if inst.dst is not None and is_varying(regs[inst.dst]):
                    label = INPUT_DIVERGENT
                    break
        classes.append(label)
        weights[label] += weight(block.bid)

    merge_upper = 1.0
    if unmergeable:
        blocked = sum(weight(b) for b in unmergeable & reachable)
        merge_upper = max(0.0, 1.0 - blocked / total_weight)

    # ----------------------------------------------------- exit register set
    exits = [b.bid for b in cfg.blocks if not b.succs and b.bid in reachable]
    must_differ: set[int] = set()
    if exits and nctx > 1:
        for reg in range(NUM_ARCH_REGS):
            vals = [va.block_out[e][reg] for e in exits]
            if all(_must_differ_exit(v) for v in vals):
                must_differ.add(reg)
    rst_upper = 1.0 - len(must_differ) / NUM_ARCH_REGS

    # -------------------------------------------------------- LVIP contract
    eligible_pcs = va.eligible_load_pcs() if lvip_eligible else frozenset()
    identical_pcs = (
        va.must_identical_load_pcs() & eligible_pcs
        if lvip_eligible
        else frozenset()
    )
    load_weight = {
        pc: weight(cfg.block_of[pc]) for pc in va.loads
    }
    total_load_weight = sum(load_weight.values())
    identical_fraction_lvip = (
        sum(load_weight[pc] for pc in identical_pcs) / total_load_weight
        if total_load_weight and lvip_eligible
        else 0.0
    )
    # The LVIP defaults to "identical" and only unlearns a PC after an
    # actual misprediction, so the first check of every PC hits: no ratio
    # bound below 1.0 is sound while the predictor is consulted at all.
    lvip_bound = 1.0 if (lvip_eligible and eligible_pcs) else 0.0

    return OracleReport(
        name=name,
        nctx=nctx,
        block_classes=classes,
        identical_fraction=weights[IDENTICAL] / total_weight,
        input_divergent_fraction=weights[INPUT_DIVERGENT] / total_weight,
        control_divergent_fraction=weights[CONTROL_DIVERGENT] / total_weight,
        merge_upper_bound=merge_upper,
        rst_upper_bound=rst_upper,
        must_diverge_branches=sorted(must_diverge),
        may_diverge_branches=sorted(may_diverge),
        diverging_exit_regs=frozenset(must_differ),
        lvip_eligible=lvip_eligible,
        lvip_hit_rate_upper_bound=lvip_bound,
        lvip_eligible_pcs=eligible_pcs,
        lvip_must_identical_pcs=identical_pcs,
        lvip_must_identical_fraction=identical_fraction_lvip,
        widened_loop_headers=len(va.widened_headers),
    )


def _must_differ_exit(v: tuple[object, ...]) -> bool:
    """May this exit value be claimed pairwise-distinct across threads?

    Exact affine forms (``a*tid + b`` with integer coefficients) and
    widening-free unknown-injective values qualify; widened values
    (symbolic uniform bases) do not — their uniformity claim assumes all
    threads iterate loops in lockstep, which the dynamic machine does not
    guarantee at exit.
    """
    if v[0] != "D":
        return False
    if exact_affine_of(v) is not None:
        return True
    return v[2] is None and v[3] is None  # unknown injective, not widened


def analyze_build(build: WorkloadBuild, limit: bool = False) -> OracleReport:
    """Oracle report for a workload build, under its job convention.

    Multi-threaded jobs share one address space: strided stacks, no
    LVIP.  Multi-execution and message-passing jobs give every context
    its own space (with the per-instance overlays) and consult the LVIP.
    ``limit=True`` analyses the build run under the Limit-study
    configuration: ``Job.limit_clone`` runs *nctx* identical clones that
    see the base data image (no overlays) and soft tid 0, as a
    multi-execution job, so far more loads are provably identical.
    """
    program = build.program
    shared = build.wtype is WorkloadType.MULTI_THREADED and not limit
    memory = MemoryModel(
        dict(program.data),
        () if limit else build.per_instance_data,
        shared=shared,
        regions=regions_from_symbols(
            getattr(program, "symbols", None) or {}, program.data
        ),
    )
    return analyze_program(
        program,
        build.nctx,
        sp_divergent=shared,
        name=program.name + "-limit" if limit else None,
        memory=memory,
        lvip_eligible=not shared,
        tid_value=0 if limit else None,
    )
