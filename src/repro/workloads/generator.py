"""Synthetic SPMD workload generator.

Builds, from an :class:`~repro.workloads.profiles.AppProfile`, a program
and job reproducing the trace-level structure MMT's mechanisms respond to:

* a *common* computation stream whose operands are identical in every
  context (execute-identical work);
* a *private* stream seeded by the thread id (multi-threaded) or by
  per-instance input data (multi-execution): fetch-identical only;
* shared-array loads (identical addresses and values), private loads
  (multi-threaded: per-thread slices; multi-execution: same addresses,
  per-instance values exercising the LVIP), and private stores;
* data-dependent control: *regular* flag-guarded regions whose two paths
  have profile-controlled taken-branch lengths, or *irregular* dispatch
  regions (compare-chains into distinct handlers) for the applications the
  paper reports as hard to synchronize;
* one leaf function call per iteration (JAL/JR) to exercise the RAS.

All randomness is drawn from a generator seeded by the application name,
so every build of a profile is bit-identical.
"""

from __future__ import annotations

import random

from repro.core.config import WorkloadType
from repro.isa.opcodes import Opcode
from repro.isa.program import WORD_SIZE, Program
from repro.pipeline.job import Job
from repro.workloads.dsl import ProgramBuilder
from repro.workloads.profiles import AppProfile

# Register allocation plan.
R_CACC = (1, 2, 3, 4)  # common integer accumulators
R_PACC = (5, 6, 7, 8)  # private integer accumulators
R_SHARED_BASE = 9
R_PRIV_BASE = 10
R_FLAGS_BASE = 11
R_OUT_BASE = 12
R_SEL_BASE = 13
R_T0, R_T1, R_T2 = 14, 15, 16
R_FIDX = 17  # control-section cursor (flags/selector index)
R_I = 18
R_TRIPS = 19
R_TID = 20
R_NCTX = 21
R_FLAG = 23
R_DIV = 24
R_CMP = 25
F_CACC = (32, 33, 34, 35)  # f0..f3
F_PACC = (36, 37, 38, 39)  # f4..f7
F_T0, F_T1 = 40, 41  # f8, f9
F_HALF, F_SCALE = 42, 43  # f10, f11
F_TMP_C, F_TMP_P = 44, 45  # f12, f13: fp scratch (common / private)

SHARED_WORDS = 1024
PRIV_WORDS = 1024
#: Words per context in the output region: per-iteration slots + checksums.
CHECKSUM_WORDS = 16
#: Control/compute sections per outer-loop iteration.  Bigger bodies keep
#: the time-skew a divergence creates smaller than one iteration, so
#: PC-equality remerges align threads at the same logical point — matching
#: the paper's workloads, whose loop bodies are thousands of instructions.
BODY_SECTIONS = 3

_INT_OPS = (Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.AND, Opcode.OR)


class WorkloadBuild:
    """A generated program plus the data needed to instantiate jobs.

    Every workload source returns one: the paper's app profiles
    (:func:`build_workload`), the registry workloads and trace replays
    (:mod:`repro.workloads.engine`) and the message-passing patterns
    (:mod:`repro.workloads.message_passing`).  *wtype* is the job
    convention; it picks the job factory and the oracle analysis
    (:func:`~repro.analysis.redundancy.analyze_build`).
    """

    def __init__(
        self,
        name: str,
        nctx: int,
        wtype: WorkloadType,
        program: Program,
        per_instance_data: list[dict[int, int | float]] | None = None,
        out_words: int = CHECKSUM_WORDS,
        out_stride: int | None = None,
    ) -> None:
        self.name = name
        self.nctx = nctx
        self.wtype = wtype
        self.program = program
        self.per_instance_data = per_instance_data or [{}]
        #: Words per context in the ``out`` region.
        self.out_words = out_words
        #: Per-context byte stride inside a shared ``out`` array
        #: (multi-threaded jobs); ``None`` means private spaces.
        self.out_stride = out_stride

    def job(self) -> Job:
        """A fresh job (new address spaces) for this build."""
        if self.wtype is WorkloadType.MULTI_THREADED:
            return Job.multi_threaded(self.name, self.program, self.nctx)
        if self.wtype is WorkloadType.MESSAGE_PASSING:
            return Job.message_passing(
                self.name, self.program, [{}] * self.nctx
            )
        return Job.multi_execution(
            self.name, self.program, self.per_instance_data
        )

    def limit_job(self) -> Job:
        """The Limit configuration: identical clones of context 0."""
        if self.wtype is WorkloadType.MESSAGE_PASSING:
            raise ValueError(
                f"workload {self.name!r} is message-passing: identical "
                "Limit clones would all wait on rank-0 traffic that never "
                "arrives; drop the Limit configuration for this scenario"
            )
        return Job.limit_clone(
            self.name, self.program, self.nctx, soft_nctx=self.nctx
        )

    def output_region(self, job: Job) -> list[list[int | float]]:
        """Final per-context outputs (for cross-configuration correctness).

        Multi-threaded jobs share one address space: every context returns
        its own slice.  Other contexts return their own copies.
        """
        base = self.program.symbol("out")
        outputs = []
        # Keyed off the *job*'s type: a Limit job clones an MT program into
        # separate address spaces whose clones all write the tid-0 slice.
        for ctx, space in enumerate(job.address_spaces):
            offset = (
                ctx * (self.out_stride or 0)
                if job.wtype is WorkloadType.MULTI_THREADED
                else 0
            )
            outputs.append(space.read_array(base + offset, self.out_words))
        return outputs


def build_workload(
    profile: AppProfile,
    nctx: int,
    scale: float = 1.0,
    seed: int | None = None,
    hints: bool = False,
) -> WorkloadBuild:
    """Generate the program and per-instance inputs for *profile*.

    ``hints=True`` inserts a software HINT instruction (an architectural
    NOP) at every control-region join point — the Thread Fusion [36]
    compiler support that `MMTConfig.use_hints` exploits.
    """
    if nctx < 1:
        raise ValueError("need at least one context")
    rng = random.Random(seed if seed is not None else _seed_of(profile.name))
    sections = max(4, int(round(profile.iterations * scale)))
    is_mt = profile.wtype is WorkloadType.MULTI_THREADED
    per_ctx_sections = max(1, sections // nctx) if is_mt else sections
    # Outer-loop trips; each iteration runs BODY_SECTIONS sections.
    chunk = max(2, per_ctx_sections // BODY_SECTIONS)

    builder = ProgramBuilder(profile.name)
    flags, sels = _place_data(builder, profile, nctx, chunk, rng, is_mt)
    _emit_program(builder, profile, nctx, chunk, rng, is_mt, hints)
    program = builder.build()
    if is_mt:
        per_instance: list[dict[int, int | float]] = [{}]
    else:
        per_instance = _me_instance_data(
            builder, profile, nctx, chunk, rng, flags, sels
        )
    out_words = chunk + CHECKSUM_WORDS
    return WorkloadBuild(
        profile.name,
        nctx,
        profile.wtype,
        program,
        per_instance,
        out_words=out_words,
        out_stride=out_words * WORD_SIZE,
    )


def _seed_of(name: str) -> int:
    return sum((i + 1) * ord(c) for i, c in enumerate(name)) * 2654435761 % (1 << 31)


# --------------------------------------------------------------------- data
def _place_data(
    builder: ProgramBuilder,
    profile: AppProfile,
    nctx: int,
    chunk: int,
    rng: random.Random,
    is_mt: bool,
):
    copies = nctx if is_mt else 1
    builder.array(
        "shared_i", [rng.randrange(1, 1 << 20) for _ in range(SHARED_WORDS)]
    )
    builder.array(
        "shared_f",
        [round(rng.uniform(0.5, 2.0), 6) for _ in range(SHARED_WORDS)],
    )
    builder.array(
        "priv_i",
        [rng.randrange(1, 1 << 20) for _ in range(PRIV_WORDS * copies)],
    )
    builder.array(
        "priv_f",
        [round(rng.uniform(0.5, 2.0), 6) for _ in range(PRIV_WORDS * copies)],
    )
    num_sections = chunk * BODY_SECTIONS
    flags, sels = _control_streams(profile, nctx, num_sections, rng)
    if is_mt:
        flat_flags = [
            flags[ctx][i] for ctx in range(nctx) for i in range(num_sections)
        ]
        flat_sels = [
            sels[ctx][i] for ctx in range(nctx) for i in range(num_sections)
        ]
    else:
        flat_flags = list(flags[0])
        flat_sels = list(sels[0])
    builder.array("flags", flat_flags)
    builder.array("sel", flat_sels)
    builder.reserve("out", (chunk + CHECKSUM_WORDS) * copies)
    return flags, sels


def _control_streams(
    profile: AppProfile, nctx: int, chunk: int, rng: random.Random
) -> tuple[list[list[int]], list[list[int]]]:
    """Per-context flag and selector streams with the profile's agreement
    statistics (contexts disagree with probability ``divergence_rate`` /
    ``1 - dispatch_agree``)."""
    flags = [[0] * chunk for _ in range(nctx)]
    sels = [[0] * chunk for _ in range(nctx)]
    handlers = max(1, profile.dispatch_handlers)
    for i in range(chunk):
        if nctx > 1 and rng.random() < profile.divergence_rate:
            values = [rng.randint(0, 1) for _ in range(nctx)]
            if len(set(values)) == 1:
                values[rng.randrange(nctx)] ^= 1
        else:
            # Agreeing flags are biased (mostly the fall-through path), as
            # real branch behaviour is: ~85% same-direction keeps the
            # two-level predictor effective outside divergences.
            values = [1 if rng.random() < 0.15 else 0] * nctx
        for ctx in range(nctx):
            flags[ctx][i] = values[ctx]
        if nctx > 1 and rng.random() > profile.dispatch_agree:
            chosen = [rng.randrange(handlers) for _ in range(nctx)]
        else:
            chosen = [rng.randrange(handlers)] * nctx
        for ctx in range(nctx):
            sels[ctx][i] = chosen[ctx]
    return flags, sels


def _me_instance_data(
    builder: ProgramBuilder,
    profile: AppProfile,
    nctx: int,
    chunk: int,
    rng: random.Random,
    flags: list[list[int]],
    sels: list[list[int]],
) -> list[dict[int, int | float]]:
    """Per-instance overlays for multi-execution jobs.

    Instance 0 runs the base image; instances k > 0 overlay their private
    inputs (dissimilar with probability ``1 - input_similarity``) and their
    own control streams.
    """
    overlays: list[dict[int, int | float]] = [{}]
    priv_i = builder.symbol("priv_i")
    priv_f = builder.symbol("priv_f")
    flags_base = builder.symbol("flags")
    sel_base = builder.symbol("sel")
    for ctx in range(1, nctx):
        overlay: dict[int, int | float] = {}
        for k in range(PRIV_WORDS):
            if rng.random() > profile.input_similarity:
                overlay[priv_i + k * WORD_SIZE] = rng.randrange(1, 1 << 20)
            if rng.random() > profile.input_similarity:
                overlay[priv_f + k * WORD_SIZE] = round(rng.uniform(0.5, 2.0), 6)
        for i in range(chunk * BODY_SECTIONS):
            if flags[ctx][i] != flags[0][i]:
                overlay[flags_base + i * WORD_SIZE] = flags[ctx][i]
            if sels[ctx][i] != sels[0][i]:
                overlay[sel_base + i * WORD_SIZE] = sels[ctx][i]
        overlays.append(overlay)
    return overlays


# --------------------------------------------------------------------- code
def _emit_program(
    builder: ProgramBuilder,
    profile: AppProfile,
    nctx: int,
    chunk: int,
    rng: random.Random,
    is_mt: bool,
    hints: bool = False,
) -> None:
    b = builder
    _emit_prologue(b, profile, nctx, chunk, is_mt)
    skip_fn = b.fresh_label("after_fn")
    b.jump(skip_fn)
    b.label("leaf_fn")
    b.alui(Opcode.ADDI, R_T0, R_T0, 7)
    b.alu(Opcode.XOR, R_CACC[0], R_CACC[0], R_T0)
    b.inst(Opcode.JR, rs1=31)
    b.label(skip_fn)

    b.label("main_loop")
    for _section in range(BODY_SECTIONS):
        _emit_common_block(b, profile, rng)
        _emit_private_block(b, profile, rng)
        if profile.dispatch_handlers:
            _emit_dispatch_region(b, profile, rng)
        else:
            _emit_divergence_region(b, profile, rng)
        if hints:
            b.inst(Opcode.HINT)  # compiler-marked remerge point at the join
        b.alui(Opcode.ADDI, R_FIDX, R_FIDX, 1)
    _emit_stores(b, profile)
    b.alui(Opcode.ADDI, R_I, R_I, 1)
    b.branch(Opcode.BLT, R_I, R_TRIPS, "main_loop")
    _emit_epilogue(b)


def _emit_prologue(
    b: ProgramBuilder, profile: AppProfile, nctx: int, chunk: int, is_mt: bool
) -> None:
    if is_mt:
        b.inst(Opcode.TID, rd=R_TID)
        b.inst(Opcode.NCTX, rd=R_NCTX)
    else:
        # Multi-execution instances must be tid-oblivious: a real process
        # cannot see which hardware context it landed on.
        b.li(R_TID, 0)
        b.li(R_NCTX, 1)
    b.li(R_TRIPS, chunk)
    b.la(R_SHARED_BASE, "shared_i")
    b.la(R_PRIV_BASE, "priv_i")
    b.la(R_FLAGS_BASE, "flags")
    b.la(R_SEL_BASE, "sel")
    b.la(R_OUT_BASE, "out")
    if is_mt:
        # Per-thread slices: offset the private/flags/selector/output bases.
        b.alui(Opcode.SLLI, R_T0, R_TID, 3)  # tid * 8 (bytes per word)
        b.li(R_T1, PRIV_WORDS)
        b.alu(Opcode.MUL, R_T2, R_T0, R_T1)
        b.alu(Opcode.ADD, R_PRIV_BASE, R_PRIV_BASE, R_T2)
        b.li(R_T1, chunk * BODY_SECTIONS)
        b.alu(Opcode.MUL, R_T2, R_T0, R_T1)
        b.alu(Opcode.ADD, R_FLAGS_BASE, R_FLAGS_BASE, R_T2)
        b.alu(Opcode.ADD, R_SEL_BASE, R_SEL_BASE, R_T2)
        b.li(R_T1, chunk + CHECKSUM_WORDS)
        b.alu(Opcode.MUL, R_T2, R_T0, R_T1)
        b.alu(Opcode.ADD, R_OUT_BASE, R_OUT_BASE, R_T2)
    for index, reg in enumerate(R_CACC):
        b.li(reg, 17 + index * 3)
    for index, reg in enumerate(R_PACC):
        # Private accumulators are seeded by the thread id (multi-threaded),
        # so their values differ per context from the first instruction; in
        # multi-execution they diverge at the first private load instead.
        b.alui(Opcode.ADDI, reg, R_TID, 5 + index)
    for index, reg in enumerate(F_CACC):
        b.li(reg, 1.0 + index * 0.25)
    for index, reg in enumerate(F_PACC):
        b.inst(Opcode.FCVT, rd=reg, rs1=R_PACC[index % len(R_PACC)])
    b.li(F_HALF, 0.5)
    b.li(F_SCALE, 1.25)
    b.li(R_T0, 3)
    b.li(F_T0, 1.5)
    b.li(F_T1, 0.75)
    b.li(R_T2, 9)
    b.li(R_FIDX, 0)
    b.li(R_I, 0)


def _emit_indexed_load(
    b: ProgramBuilder,
    rng: random.Random,
    dst: int,
    base_reg: int,
    words: int,
    fp_disp: int = 0,
    mix_reg: int | None = None,
) -> None:
    """dst <- base[(32*i + c) & (words-1)] (+ *fp_disp* for the fp twin).

    The stride of 32 words (four cache lines) scatters each site's touches,
    so the working set exercises the L1 the way pointer-rich benchmark code
    does instead of collapsing onto a handful of hot lines.  With
    *mix_reg*, the index additionally depends on that register — private
    streams pass an accumulator, making the whole address chain (and
    everything consuming the loaded value) context-private, as real
    pointer-rich code is.
    """
    offset = rng.randrange(words)
    b.alui(Opcode.SLLI, R_T1, R_I, 5)
    if mix_reg is not None:
        b.alu(Opcode.ADD, R_T1, R_T1, mix_reg)
    else:
        b.alui(Opcode.ADDI, R_T1, R_T1, offset)
    b.alui(Opcode.ANDI, R_T1, R_T1, words - 1)
    b.alui(Opcode.SLLI, R_T1, R_T1, 3)
    b.alu(Opcode.ADD, R_T1, R_T1, base_reg)
    if fp_disp:
        b.load(dst, R_T1, disp=fp_disp, fp=True)
    else:
        b.load(dst, R_T1, disp=0)


def _fp_twin_disp(b: ProgramBuilder, int_name: str, fp_name: str) -> int:
    return b.symbol(fp_name) - b.symbol(int_name)


def _emit_common_block(
    b: ProgramBuilder, profile: AppProfile, rng: random.Random
) -> None:
    """Arithmetic on context-identical values: the execute-identical stream."""
    fp_budget = int(round(profile.common_ops * profile.fp_frac))
    int_budget = profile.common_ops - fp_budget
    fp_disp = _fp_twin_disp(b, "shared_i", "shared_f")
    for index in range(profile.shared_loads):
        if index % 2 == 0 or fp_budget == 0:
            _emit_indexed_load(b, rng, R_T0, R_SHARED_BASE, SHARED_WORDS)
        else:
            _emit_indexed_load(
                b, rng, F_T0, R_SHARED_BASE, SHARED_WORDS, fp_disp=fp_disp
            )
    b.inst(Opcode.JAL, rd=31, target="leaf_fn")
    _emit_int_ops(b, rng, int_budget, R_CACC, R_T0)
    _emit_fp_ops(b, rng, fp_budget, F_CACC, F_T0, F_TMP_C)


def _emit_int_ops(
    b: ProgramBuilder,
    rng: random.Random,
    budget: int,
    accs: tuple[int, ...],
    fresh: int,
) -> None:
    """Latency-1 integer work spread across *accs* (one dependence chain per
    accumulator, so an 8-wide core can extract ILP ~len(accs) from it)."""
    for k in range(budget):
        dst = accs[k % len(accs)]
        other = accs[(k + 1) % len(accs)]
        roll = rng.random()
        if roll < 0.30:
            b.alui(Opcode.ADDI, dst, dst, rng.randrange(1, 64))
        elif roll < 0.35:
            b.alu(Opcode.MUL, dst, dst, fresh)
        elif roll < 0.65:
            b.alu(rng.choice(_INT_OPS), dst, dst, fresh)
        else:
            b.alu(rng.choice(_INT_OPS), dst, other, fresh)


def _emit_fp_ops(
    b: ProgramBuilder,
    rng: random.Random,
    budget: int,
    accs: tuple[int, ...],
    fresh: int,
    tmp: int,
) -> None:
    """Floating-point work: independent multiplies feeding short add chains.

    Values stay bounded (inputs in [0.5, 2], scales <= 1.25) so merged
    results never reach inf/NaN, which would break value-identity.
    """
    emitted = 0
    while emitted < budget:
        dst = accs[emitted % len(accs)]
        if rng.random() < 0.5 and budget - emitted >= 2:
            b.alu(Opcode.FMUL, tmp, fresh, F_HALF)
            b.alu(Opcode.FADD, dst, dst, tmp)
            emitted += 2
        else:
            b.alu(Opcode.FMUL, dst, dst, F_HALF)
            b.alu(Opcode.FADD, dst, dst, F_SCALE)
            emitted += 2


def _emit_private_block(
    b: ProgramBuilder, profile: AppProfile, rng: random.Random
) -> None:
    """Arithmetic on context-private values: fetch-identical only."""
    fp_budget = int(round(profile.private_ops * profile.fp_frac))
    int_budget = profile.private_ops - fp_budget
    fp_disp = _fp_twin_disp(b, "priv_i", "priv_f")
    for index in range(profile.private_loads):
        mix = R_PACC[index % len(R_PACC)]
        if index % 2 == 0 or fp_budget == 0:
            _emit_indexed_load(b, rng, R_T2, R_PRIV_BASE, PRIV_WORDS, mix_reg=mix)
            b.alu(Opcode.XOR, R_PACC[0], R_PACC[0], R_T2)
        else:
            _emit_indexed_load(
                b, rng, F_T1, R_PRIV_BASE, PRIV_WORDS, fp_disp=fp_disp, mix_reg=mix
            )
            b.alu(Opcode.FADD, F_PACC[0], F_PACC[0], F_T1)
    _emit_int_ops(b, rng, int_budget, R_PACC, R_T2)
    _emit_fp_ops(b, rng, fp_budget, F_PACC, F_T1, F_TMP_P)


def _emit_divergence_region(
    b: ProgramBuilder, profile: AppProfile, rng: random.Random
) -> None:
    """Flag-guarded region with asymmetric paths (regular control)."""
    trips_a, trips_b = profile.divergence_trips
    b.alui(Opcode.SLLI, R_T1, R_FIDX, 3)
    b.alu(Opcode.ADD, R_T1, R_T1, R_FLAGS_BASE)
    b.load(R_FLAG, R_T1, disp=0)
    else_label = b.fresh_label("div_else")
    join_label = b.fresh_label("div_join")
    b.branch(Opcode.BNE, R_FLAG, 0, else_label)
    _emit_spin(b, rng, trips_a, R_PACC[0])
    _emit_remerge_material(b, profile)
    b.jump(join_label)
    b.label(else_label)
    _emit_spin(b, rng, trips_b, R_PACC[1])
    _emit_remerge_material(b, profile)
    b.label(join_label)


def _emit_spin(
    b: ProgramBuilder, rng: random.Random, trips: int, acc: int
) -> None:
    head = b.fresh_label("spin")
    b.li(R_DIV, trips)
    b.label(head)
    b.alui(Opcode.ADDI, acc, acc, rng.randrange(1, 16))
    b.alu(Opcode.XOR, acc, acc, R_DIV)
    b.alui(Opcode.ADDI, R_DIV, R_DIV, -1)
    b.branch(Opcode.BNE, R_DIV, 0, head)


def _emit_remerge_material(b: ProgramBuilder, profile: AppProfile) -> None:
    """Redundant common-register writes on divergent paths.

    Both paths recompute the same function of context-identical values, so
    the two threads write equal values into the same architected register
    from different PCs — exactly the case §4.2.7's register merging exists
    to repair.  Without it the register (and everything downstream) stays
    split until the end of the run.
    """
    for k in range(profile.remerge_regs):
        dst = R_CACC[(2 + k) % len(R_CACC)]
        b.alui(Opcode.ADDI, dst, R_T0, 21 + k)


def _emit_dispatch_region(
    b: ProgramBuilder, profile: AppProfile, rng: random.Random
) -> None:
    """Irregular control: a compare-chain into distinct handlers.

    Contexts that pick different handlers sit at different PCs for the
    whole handler body — the twolf/vpr/vortex behaviour that keeps the
    paper's MERGE fraction low.
    """
    handlers = profile.dispatch_handlers
    b.alui(Opcode.SLLI, R_T1, R_FIDX, 3)
    b.alu(Opcode.ADD, R_T1, R_T1, R_SEL_BASE)
    b.load(R_FLAG, R_T1, disp=0)
    labels = [b.fresh_label(f"hnd{k}_") for k in range(handlers)]
    join_label = b.fresh_label("disp_join")
    for k in range(1, handlers):
        b.li(R_CMP, k)
        b.branch(Opcode.BEQ, R_FLAG, R_CMP, labels[k])
    b.jump(labels[0])
    trips_a, trips_b = profile.divergence_trips
    for k, label in enumerate(labels):
        b.label(label)
        body_ops = 3 + (k * 2) % 7
        for j in range(body_ops):
            acc = R_PACC[(k + j) % len(R_PACC)]
            b.alui(Opcode.ADDI, acc, acc, k + j + 1)
            if j % 3 == 2:
                b.alu(Opcode.XOR, acc, acc, R_FLAG)
        if k % 2 == 1:
            # Handler lengths span the profile's divergence-trip range, so
            # contexts picking different handlers produce path-length
            # differences following the application's Figure 2 profile.
            span = max(1, handlers - 1)
            trips = trips_a + (k * (trips_b - trips_a)) // span
            _emit_spin(b, rng, max(1, trips), R_PACC[k % len(R_PACC)])
        _emit_remerge_material(b, profile)
        b.jump(join_label)
    b.label(join_label)


def _emit_stores(b: ProgramBuilder, profile: AppProfile) -> None:
    for index in range(profile.stores):
        b.alui(Opcode.SLLI, R_T1, R_I, 3)
        b.alu(Opcode.ADD, R_T1, R_T1, R_OUT_BASE)
        value = R_PACC[index % len(R_PACC)]
        b.store(value, R_T1, disp=0)


def _emit_epilogue(b: ProgramBuilder) -> None:
    """Store every accumulator (the cross-configuration checksum)."""
    b.alui(Opcode.SLLI, R_T1, R_TRIPS, 3)
    b.alu(Opcode.ADD, R_T1, R_T1, R_OUT_BASE)
    for offset, reg in enumerate(R_CACC + R_PACC):
        b.store(reg, R_T1, disp=offset * WORD_SIZE)
    for offset, reg in enumerate(F_CACC + F_PACC):
        b.store(reg, R_T1, disp=(offset + 8) * WORD_SIZE, fp=True)
    b.halt()
