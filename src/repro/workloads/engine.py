"""Request-engine workloads: dynamic mixes and server-style request streams.

The built-in applications (:mod:`repro.workloads.generator`) are fixed
synthetic SPMD kernels: their divergence statistics are stationary, so the
merge/split FSM settles into a steady state within a few hundred cycles.
This module adds the ``Req`` / :class:`ReqGenEngine` / :class:`Workload`
decomposition (the hopperkv driver shape, see ROADMAP item 3): an *engine*
generates an abstract request stream from a seed, and a *workload* compiles
that stream down to a guest :class:`~repro.isa.program.Program` — so the
assembler, the static linter and the value oracle apply unchanged, and the
whole pipeline (not a special replay mode) is what gets stressed.

Four workload families live behind one registry:

* :class:`DynamicWorkload` — phase-changing mixes (bursty divergence,
  gradual thread decoherence, lockstep→independent transitions) realised
  as per-section control streams for the standard generator body;
* :class:`RequestStreamWorkload` — server-style request streams over the
  message-passing SEND/TRECV channels: rank 0 dispatches typed requests
  from the other ranks and replies, the paper's "message passing"
  category under actual load;
* :class:`MessagePassingWorkload` — the ring and pairs exchange patterns
  of :mod:`repro.workloads.message_passing` (``mp-ring``, ``mp-pairs``),
  the paper's deferred message-passing class (§7);
* :class:`~repro.workloads.record.TraceReplayWorkload` — replays
  per-thread commit streams recorded from real runs (``repro record``);
  resolved lazily through ``trace:<path>`` registry names so campaign
  worker processes can reconstruct it from the job spec alone.

Everything is deterministic per ``(workload, nctx, scale, seed)``: builds
are bit-identical across processes, which the campaign cache and the
suite-level property tests rely on.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.config import WorkloadType
from repro.isa.opcodes import Opcode
from repro.isa.program import WORD_SIZE
from repro.workloads.dsl import ProgramBuilder
from repro.workloads.generator import (
    BODY_SECTIONS,
    CHECKSUM_WORDS,
    PRIV_WORDS,
    SHARED_WORDS,
    WorkloadBuild,
    _emit_program,
)
from repro.workloads.message_passing import build_mp_workload, valid_nctx
from repro.workloads.profiles import AppProfile


# ------------------------------------------------------------------- model
@dataclass(frozen=True)
class Req:
    """One abstract request an engine emits.

    ``kind`` names the request family (a phase mode, a server request
    type), ``key`` orders it within the stream, and ``value`` carries the
    engine's payload — what it means is up to the workload compiling the
    stream (a divergence decision, a request operand, a trace token).
    """

    kind: str
    key: int
    value: int


class ReqGenEngine(ABC):
    """Generates a deterministic request stream from a seeded RNG."""

    @abstractmethod
    def requests(self, nctx: int, count: int, rng: random.Random) -> list[Req]:
        """*count* requests for an *nctx*-context run."""


class Workload(ABC):
    """A named generator of guest programs (one registry entry).

    Subclasses compile an engine's request stream into a
    :class:`~repro.workloads.generator.WorkloadBuild`, the build type of
    the built-in app profiles too, so registry workloads are drop-in
    replacements for them in campaigns, figures and the differential
    suites.
    """

    name: str
    #: Job convention of generated builds (picks the oracle analysis and
    #: whether the Limit configuration applies).
    wtype: WorkloadType

    @abstractmethod
    def build(
        self, nctx: int, scale: float = 1.0, seed: int | None = None
    ) -> WorkloadBuild:
        """Deterministically generate a program for *nctx* contexts."""

    def valid_nctx(self, nctx: int) -> bool:
        """May this workload run with *nctx* hardware contexts?"""
        return nctx >= 1

    def cache_token(self) -> str:
        """Content token in the cache key of every campaign job naming
        this workload (trace digests); empty when (name, nctx, scale,
        seed) already pin the build."""
        return ""

    def _rng(self, seed: int | None) -> random.Random:
        # Seeding by (name, seed) keeps distinct workloads decorrelated
        # while staying bit-deterministic across processes (str seeding
        # hashes the text, never the interpreter's randomized hash()).
        return random.Random(f"{self.name}/{0 if seed is None else seed}")


# ---------------------------------------------------------------- registry
class WorkloadRegistryError(ValueError):
    """Structured registry failure: unknown or duplicate workload names."""

    def __init__(self, name: str, reason: str, known=()) -> None:
        hint = f"; known workloads: {', '.join(sorted(known))}" if known else ""
        super().__init__(f"workload {name!r}: {reason}{hint}")
        self.name = name
        self.reason = reason


_REGISTRY: dict[str, Workload] = {}
_TRACE_MEMO: dict[str, Workload] = {}

#: Prefix of lazily resolved recorded-trace workload names.
TRACE_PREFIX = "trace:"


def register_workload(workload: Workload, replace: bool = False) -> Workload:
    """Add *workload* to the registry; duplicate names are an error."""
    if workload.name.startswith(TRACE_PREFIX):
        raise WorkloadRegistryError(
            workload.name,
            f"the {TRACE_PREFIX!r} prefix is reserved for recorded traces",
        )
    if not replace and workload.name in _REGISTRY:
        raise WorkloadRegistryError(
            workload.name, "already registered (pass replace=True to shadow)"
        )
    _REGISTRY[workload.name] = workload
    return workload


def workload_names() -> list[str]:
    """Registered workload names (recorded traces resolve by path)."""
    return sorted(_REGISTRY)


def is_engine_workload(name: str) -> bool:
    """Does *name* resolve through this registry (vs an app profile)?"""
    return name in _REGISTRY or name.startswith(TRACE_PREFIX)


def get_workload(name: str) -> Workload:
    """Resolve a registry name, loading ``trace:<path>`` names lazily.

    Lazy trace resolution is what lets a campaign worker process rebuild
    a replay workload from the job's ``app`` string alone — the recorded
    trace travels as a file, not as pickled Python state.
    """
    if name in _REGISTRY:
        return _REGISTRY[name]
    if name.startswith(TRACE_PREFIX):
        workload = _TRACE_MEMO.get(name)
        if workload is None:
            from repro.workloads.record import RecordedTrace, TraceReplayWorkload

            path = name[len(TRACE_PREFIX):]
            try:
                trace = RecordedTrace.load(path)
            except (OSError, ValueError) as exc:
                raise WorkloadRegistryError(
                    name, f"cannot load recorded trace: {exc}"
                ) from exc
            workload = TraceReplayWorkload(trace, name=name)
            _TRACE_MEMO[name] = workload
        return workload
    raise WorkloadRegistryError(name, "not registered", known=_REGISTRY)


def build_engine_workload(
    name: str, nctx: int, scale: float = 1.0, seed: int | None = None
) -> WorkloadBuild:
    """Resolve *name* and build it, validating the context count."""
    workload = get_workload(name)
    if not workload.valid_nctx(nctx):
        raise WorkloadRegistryError(
            name, f"does not support nctx={nctx}"
        )
    return workload.build(nctx, scale=scale, seed=seed)


# ------------------------------------------------------------ dynamic mixes
#: Per-mode (divergence probability, dispatch agreement) envelopes.
PHASE_MODES = {
    "lockstep": (0.0, 1.0),
    "bursty": (0.9, 0.45),  # inside a burst; quiet sections use ~0.02
    "decohere": (0.8, 0.5),  # ramp target; starts fully coherent
    "independent": (0.6, 0.3),
}

#: Sections per divergence burst and the gap between bursts.
BURST_LEN = 4
BURST_PERIOD = 12


@dataclass(frozen=True)
class Phase:
    """One stretch of a phase schedule."""

    mode: str
    weight: float = 1.0


class PhaseScheduleEngine(ReqGenEngine):
    """Emit one :class:`Req` per generator body section.

    ``kind`` is the phase mode governing that section and ``value`` is
    the realised per-mille divergence probability — bursty phases pulse
    between quiet and saturated, decohere phases ramp linearly from full
    coherence to the mode's envelope, lockstep/independent phases hold
    their envelope flat.  The workload turns each request into one
    section of per-context flag/selector streams.
    """

    def __init__(self, phases: tuple[Phase, ...]) -> None:
        for phase in phases:
            if phase.mode not in PHASE_MODES:
                raise ValueError(
                    f"unknown phase mode {phase.mode!r}; choose from "
                    f"{sorted(PHASE_MODES)}"
                )
        self.phases = phases

    def requests(self, nctx: int, count: int, rng: random.Random) -> list[Req]:
        del nctx
        total = sum(phase.weight for phase in self.phases) or 1.0
        bounds = []
        start = 0
        for phase in self.phases:
            length = max(1, round(count * phase.weight / total))
            bounds.append((phase, start, start + length))
            start += length
        reqs: list[Req] = []
        for index in range(count):
            phase, lo, hi = bounds[-1]
            for candidate in bounds:
                if candidate[1] <= index < candidate[2]:
                    phase, lo, hi = candidate
                    break
            envelope, _agree = PHASE_MODES[phase.mode]
            if phase.mode == "bursty":
                in_burst = (index - lo) % BURST_PERIOD < BURST_LEN
                prob = envelope if in_burst else 0.02
            elif phase.mode == "decohere":
                span = max(1, hi - lo - 1)
                prob = envelope * (index - lo) / span
            else:
                prob = envelope
            reqs.append(Req(phase.mode, index, int(round(prob * 1000))))
        return reqs


class DynamicWorkload(Workload):
    """Phase-changing control mixes over the standard generator body.

    The program text is exactly what :func:`generator._emit_program`
    produces for the synthetic profile, so the pipeline sees ordinary
    SPMD code — only the per-section control streams (which contexts
    agree on flags and dispatch selectors) follow the engine's phase
    schedule instead of a stationary rate.  Multi-threaded convention:
    one shared address space, per-thread flag/selector/output slices.
    """

    wtype = WorkloadType.MULTI_THREADED

    def __init__(
        self, name: str, phases: tuple[Phase, ...], profile: AppProfile
    ) -> None:
        self.name = name
        self.engine = PhaseScheduleEngine(phases)
        self.profile = profile

    def build(
        self, nctx: int, scale: float = 1.0, seed: int | None = None
    ) -> WorkloadBuild:
        if not self.valid_nctx(nctx):
            raise ValueError(f"{self.name}: need at least one context")
        rng = self._rng(seed)
        sections = max(4, int(round(self.profile.iterations * scale)))
        per_ctx = max(1, sections // nctx)
        chunk = max(2, per_ctx // BODY_SECTIONS)
        num_sections = chunk * BODY_SECTIONS
        reqs = self.engine.requests(nctx, num_sections, rng)
        flags, sels = self._realize(reqs, nctx, rng)

        builder = ProgramBuilder(self.name)
        _place_streams(builder, nctx, chunk, rng, flags, sels)
        _emit_program(builder, self.profile, nctx, chunk, rng, True, False)
        out_stride = (chunk + CHECKSUM_WORDS) * WORD_SIZE
        return WorkloadBuild(
            self.name,
            nctx,
            self.wtype,
            builder.build(),
            out_words=chunk + CHECKSUM_WORDS,
            out_stride=out_stride,
        )

    def _realize(
        self, reqs: list[Req], nctx: int, rng: random.Random
    ) -> tuple[list[list[int]], list[list[int]]]:
        """Per-context flag/selector streams following the phase schedule."""
        handlers = max(1, self.profile.dispatch_handlers)
        flags = [[0] * len(reqs) for _ in range(nctx)]
        sels = [[0] * len(reqs) for _ in range(nctx)]
        for req in reqs:
            prob = req.value / 1000.0
            _envelope, agree = PHASE_MODES[req.kind]
            if nctx > 1 and rng.random() < prob:
                values = [rng.randint(0, 1) for _ in range(nctx)]
                if len(set(values)) == 1:
                    values[rng.randrange(nctx)] ^= 1
            else:
                values = [1 if rng.random() < 0.15 else 0] * nctx
            # Dispatch disagreement tracks the phase too: fully coherent
            # phases pick one handler for everyone.
            disagree = prob * (1.0 - agree) if prob else 0.0
            if nctx > 1 and rng.random() < disagree:
                chosen = [rng.randrange(handlers) for _ in range(nctx)]
            else:
                chosen = [rng.randrange(handlers)] * nctx
            for ctx in range(nctx):
                flags[ctx][req.key] = values[ctx]
                sels[ctx][req.key] = chosen[ctx]
        return flags, sels


def _place_streams(
    builder: ProgramBuilder,
    nctx: int,
    chunk: int,
    rng: random.Random,
    flags: list[list[int]],
    sels: list[list[int]],
) -> None:
    """The generator's multi-threaded data layout with explicit streams."""
    builder.array(
        "shared_i", [rng.randrange(1, 1 << 20) for _ in range(SHARED_WORDS)]
    )
    builder.array(
        "shared_f",
        [round(rng.uniform(0.5, 2.0), 6) for _ in range(SHARED_WORDS)],
    )
    builder.array(
        "priv_i", [rng.randrange(1, 1 << 20) for _ in range(PRIV_WORDS * nctx)]
    )
    builder.array(
        "priv_f",
        [round(rng.uniform(0.5, 2.0), 6) for _ in range(PRIV_WORDS * nctx)],
    )
    num_sections = chunk * BODY_SECTIONS
    builder.array(
        "flags",
        [flags[ctx][i] for ctx in range(nctx) for i in range(num_sections)],
    )
    builder.array(
        "sel",
        [sels[ctx][i] for ctx in range(nctx) for i in range(num_sections)],
    )
    builder.reserve("out", (chunk + CHECKSUM_WORDS) * nctx)


# --------------------------------------------------------- request streams
# Register plan for the request-stream program (disjoint from the
# generator's only by convention; the program is self-contained).
_R_CACC = (1, 2, 3, 4)
_R_PACC = 5
_R_RECVD = 6
_R_EXPECT = 7
_R_SHARED = 9
_R_OUT = 12
_R_T0, _R_T1 = 14, 15
_R_MSG = 16
_R_I = 18
_R_TRIPS = 19
_R_TID = 20
_R_NCTX = 21
_R_DEST = 22
_R_TYPE = 23
_R_PAYLOAD = 24
_R_NEG1 = 25
_R_CMP = 26

_OUT_WORDS = 8
_REQ_WORDS = 64


class RequestStreamEngine(ReqGenEngine):
    """Request operands for the shared image (one word per slot).

    ``uniform`` draws operands flat, so handler types spread evenly;
    ``skewed`` biases the low bits toward zero, concentrating traffic on
    handler 0 the way hot-key server workloads do.
    """

    def __init__(self, pattern: str) -> None:
        self.pattern = pattern

    def requests(self, nctx: int, count: int, rng: random.Random) -> list[Req]:
        del nctx
        reqs = []
        for index in range(count):
            value = rng.randrange(1, 1 << 12)
            if self.pattern == "skewed" and rng.random() < 0.6:
                value &= ~0x6  # clear middle type bits: most land on 0/1
            reqs.append(Req(self.pattern, index, value))
        return reqs


class RequestStreamWorkload(Workload):
    """Server-style request streams over SEND/TRECV channels.

    Rank 0 is the server: it spin-receives ``(payload << 4) | rank``
    messages, dispatches on the request type through a compare chain of
    handlers (commutative accumulation, so the result is independent of
    arrival interleaving), and replies to the sending rank.  Ranks ≥ 1
    are clients: each derives its payloads from *uniform-address* shared
    loads mixed with rank arithmetic — addresses never depend on the
    tid, so every load the value oracle proves must-identical really is
    identical across ranks and the LVIP contract stays sound.
    """

    wtype = WorkloadType.MESSAGE_PASSING

    def __init__(
        self,
        name: str,
        pattern: str = "uniform",
        reqs_per_client: int = 8,
        handlers: int = 4,
        common_ops: int = 10,
    ) -> None:
        if pattern not in ("uniform", "skewed"):
            raise ValueError(f"unknown request pattern {pattern!r}")
        self.name = name
        self.engine = RequestStreamEngine(pattern)
        self.pattern = pattern
        self.reqs_per_client = reqs_per_client
        self.handlers = handlers
        self.common_ops = common_ops

    def valid_nctx(self, nctx: int) -> bool:
        # The rank is packed into the low 4 bits of every message, and
        # the machine itself caps hardware contexts at MAX_THREADS.
        from repro.core.itid import MAX_THREADS

        return 2 <= nctx <= min(15, MAX_THREADS)

    def build(
        self, nctx: int, scale: float = 1.0, seed: int | None = None
    ) -> WorkloadBuild:
        if not self.valid_nctx(nctx):
            raise ValueError(
                f"{self.name}: request streams need at least 2 ranks "
                f"within the machine's context limit, got {nctx}"
            )
        rng = self._rng(seed)
        nreq = max(2, int(round(self.reqs_per_client * scale)))
        reqs = self.engine.requests(nctx, _REQ_WORDS, rng)
        b = ProgramBuilder(self.name)
        b.array("reqdata", [req.value for req in reqs])
        b.reserve("out", _OUT_WORDS)
        self._emit(b, nreq, rng)
        return WorkloadBuild(
            self.name, nctx, self.wtype, b.build(), out_words=_OUT_WORDS
        )

    def _emit(self, b: ProgramBuilder, nreq: int, rng: random.Random) -> None:
        handlers = self.handlers
        b.inst(Opcode.TID, rd=_R_TID)
        b.inst(Opcode.NCTX, rd=_R_NCTX)
        b.la(_R_SHARED, "reqdata")
        b.la(_R_OUT, "out")
        b.li(_R_TRIPS, nreq)
        for index, reg in enumerate(_R_CACC):
            b.li(reg, 7 + 3 * index)
        b.li(_R_PACC, 0)
        b.li(_R_RECVD, 0)
        b.li(_R_NEG1, -1)
        b.li(_R_I, 0)
        b.branch(Opcode.BNE, _R_TID, 0, "client")

        # ------------------------------------------------------- server
        # expected = (nctx - 1) * nreq replies owed before halting.
        b.alui(Opcode.ADDI, _R_EXPECT, _R_NCTX, -1)
        b.alu(Opcode.MUL, _R_EXPECT, _R_EXPECT, _R_TRIPS)
        b.label("srv_loop")
        spin = b.fresh_label("srv_spin")
        b.label(spin)
        b.inst(Opcode.TRECV, rd=_R_MSG, rs1=_R_TID)
        b.branch(Opcode.BEQ, _R_MSG, _R_NEG1, spin)
        b.alui(Opcode.ANDI, _R_DEST, _R_MSG, 0xF)
        b.alui(Opcode.SRLI, _R_PAYLOAD, _R_MSG, 4)
        b.alui(Opcode.ANDI, _R_TYPE, _R_PAYLOAD, handlers - 1)
        labels = [b.fresh_label(f"srv_hnd{k}_") for k in range(handlers)]
        join = b.fresh_label("srv_join")
        for k in range(1, handlers):
            b.li(_R_CMP, k)
            b.branch(Opcode.BEQ, _R_TYPE, _R_CMP, labels[k])
        b.jump(labels[0])
        for k, label in enumerate(labels):
            b.label(label)
            acc = _R_CACC[k % len(_R_CACC)]
            # Commutative per-type accumulation: ADD/XOR only, so the
            # result is invariant to request arrival interleaving.
            b.alu(Opcode.ADD, acc, acc, _R_PAYLOAD)
            if k % 2:
                b.alu(Opcode.XOR, _R_PACC, _R_PACC, _R_PAYLOAD)
            else:
                b.alu(Opcode.ADD, _R_PACC, _R_PACC, _R_TYPE)
            for j in range(2 + k):
                b.alui(Opcode.ADDI, acc, acc, k + j + 1)
            b.jump(join)
        b.label(join)
        b.alui(Opcode.ANDI, _R_PACC, _R_PACC, (1 << 30) - 1)
        # reply = payload * 3 + type, bounded.
        b.alui(Opcode.SLLI, _R_T0, _R_PAYLOAD, 1)
        b.alu(Opcode.ADD, _R_T0, _R_T0, _R_PAYLOAD)
        b.alu(Opcode.ADD, _R_T0, _R_T0, _R_TYPE)
        b.alui(Opcode.ANDI, _R_T0, _R_T0, (1 << 20) - 1)
        b.inst(Opcode.SEND, rs1=_R_DEST, rs2=_R_T0)
        b.alui(Opcode.ADDI, _R_RECVD, _R_RECVD, 1)
        b.branch(Opcode.BLT, _R_RECVD, _R_EXPECT, "srv_loop")
        self._emit_epilogue(b)

        # ------------------------------------------------------- client
        b.label("client")
        b.label("cl_loop")
        # Uniform-address request load: the index depends only on the
        # loop counter, never the rank (LVIP soundness; see class doc).
        b.alui(Opcode.ANDI, _R_T1, _R_I, _REQ_WORDS - 1)
        b.alui(Opcode.SLLI, _R_T1, _R_T1, 3)
        b.alu(Opcode.ADD, _R_T1, _R_T1, _R_SHARED)
        b.load(_R_T0, _R_T1, disp=0)
        # payload = (word ^ rank * 5) & 0xFFF — rank variation arrives
        # arithmetically, not through divergent addresses.
        b.alui(Opcode.SLLI, _R_T1, _R_TID, 2)
        b.alu(Opcode.ADD, _R_T1, _R_T1, _R_TID)
        b.alu(Opcode.XOR, _R_PAYLOAD, _R_T0, _R_T1)
        b.alui(Opcode.ANDI, _R_PAYLOAD, _R_PAYLOAD, 0xFFF)
        b.alui(Opcode.SLLI, _R_MSG, _R_PAYLOAD, 4)
        b.alu(Opcode.OR, _R_MSG, _R_MSG, _R_TID)
        b.inst(Opcode.SEND, rs1=0, rs2=_R_MSG)
        spin = b.fresh_label("cl_spin")
        b.label(spin)
        b.inst(Opcode.TRECV, rd=_R_MSG, rs1=_R_TID)
        b.branch(Opcode.BEQ, _R_MSG, _R_NEG1, spin)
        b.alu(Opcode.ADD, _R_PACC, _R_PACC, _R_MSG)
        b.alui(Opcode.ANDI, _R_PACC, _R_PACC, (1 << 30) - 1)
        b.alui(Opcode.ADDI, _R_RECVD, _R_RECVD, 1)
        # Context-identical compute between requests (think: parsing,
        # checksumming) so clients still offer mergeable work.
        for k in range(self.common_ops):
            dst = _R_CACC[k % len(_R_CACC)]
            op = rng.choice((Opcode.ADD, Opcode.XOR, Opcode.OR, Opcode.SUB))
            b.alu(op, dst, dst, _R_T0)
        b.alui(Opcode.ADDI, _R_I, _R_I, 1)
        b.branch(Opcode.BLT, _R_I, _R_TRIPS, "cl_loop")
        self._emit_epilogue(b)

    def _emit_epilogue(self, b: ProgramBuilder) -> None:
        for offset, reg in enumerate(_R_CACC + (_R_PACC, _R_RECVD)):
            b.store(reg, _R_OUT, disp=offset * WORD_SIZE)
        b.halt()


# ---------------------------------------------------------- message passing
class MessagePassingWorkload(Workload):
    """One exchange pattern of :func:`build_mp_workload`, ``mp-<pattern>``.

    Its exchange count follows the scale, ``max(8, int(48 * scale))``.
    Without a seed the program is the pattern's own (seeded by its
    name); a seed reseeds the shared data and the compute block.
    """

    wtype = WorkloadType.MESSAGE_PASSING

    def __init__(self, pattern: str) -> None:
        self.name = f"mp-{pattern}"
        self.pattern = pattern

    def valid_nctx(self, nctx: int) -> bool:
        return valid_nctx(self.pattern, nctx)

    def build(
        self, nctx: int, scale: float = 1.0, seed: int | None = None
    ) -> WorkloadBuild:
        return build_mp_workload(nctx, self.pattern,
                                 iterations=max(8, int(48 * scale)), seed=seed)


# ------------------------------------------------------------ registrations
def _dynamic_profile(name: str, **overrides) -> AppProfile:
    """Synthetic multi-threaded profile driving the generator body."""
    knobs = dict(
        iterations=48, common_ops=18, private_ops=8, shared_loads=3,
        private_loads=2, stores=1, fp_frac=0.25, divergence_rate=0.0,
        divergence_trips=(2, 6), dispatch_handlers=0, remerge_regs=1,
    )
    knobs.update(overrides)
    return AppProfile(name, "dynamic", WorkloadType.MULTI_THREADED, **knobs)


BUILTIN_WORKLOADS: tuple[Workload, ...] = (
    DynamicWorkload(
        "dyn-bursty",
        (Phase("bursty"),),
        _dynamic_profile("dyn-bursty"),
    ),
    DynamicWorkload(
        "dyn-decohere",
        (Phase("decohere"),),
        _dynamic_profile("dyn-decohere"),
    ),
    DynamicWorkload(
        "dyn-phased",
        (Phase("lockstep", 1.0), Phase("bursty", 1.0), Phase("independent", 1.0)),
        _dynamic_profile("dyn-phased", dispatch_handlers=5),
    ),
    RequestStreamWorkload("reqstream-uniform", pattern="uniform"),
    RequestStreamWorkload("reqstream-skewed", pattern="skewed", handlers=8),
    MessagePassingWorkload("ring"),
    MessagePassingWorkload("pairs"),
)

for _workload in BUILTIN_WORKLOADS:
    register_workload(_workload)
