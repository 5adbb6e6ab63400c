"""Trace recording and replay: workloads generated from real runs.

``repro record`` runs one simulation point on the *reference* core with
the Observer attached and captures every per-thread commit: merged
commits (one event covering several threads) are expanded across their
thread mask, giving one committed-PC stream per context.  Each stream is
then windowed (``window`` PCs per window) and dictionary-compressed —
identical windows, *across threads as well as along one stream*, share a
token id — so the recorded artefact keeps exactly the structure MMT
exploits: threads that ran in lockstep carry identical token runs,
decohered stretches carry disjoint ones.

:class:`TraceReplayWorkload` compiles a recording back into a guest
program: a multi-threaded token-dispatch loop in which every context
walks its own token slice and executes a handler selected by the token's
low bits, with token-derived spin lengths.  Replaying thus reproduces the
recorded coherence structure — same-token sections re-merge, divergent
sections split — through the ordinary fetch/merge machinery, and the
program is subject to the assembler, linter and value oracle like any
generated workload.

Recordings are content-addressed: :meth:`RecordedTrace.digest` hashes
the canonical JSON form, and the replay workload folds that digest into
its campaign jobs' cache token, so suites referencing a trace file are
cache-correct even if the file is moved or regenerated.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

from repro.core.config import WorkloadType
from repro.isa.opcodes import Opcode
from repro.isa.program import WORD_SIZE
from repro.obs import MemorySink, Observer
from repro.obs.events import EventKind
from repro.workloads.dsl import ProgramBuilder
from repro.workloads.engine import Workload
from repro.workloads.generator import WorkloadBuild

#: Recording format version (bump on incompatible schema changes).
FORMAT_VERSION = 1

#: Default committed-PC window length (one token per window).
DEFAULT_WINDOW = 32

#: Longest token stream a recording keeps per context.
MAX_TOKENS = 4096

#: Token-dispatch handlers in the replay program (must be a power of 2).
REPLAY_HANDLERS = 8

_SHARED_WORDS = 256
_OUT_WORDS = 16

# Replay register plan (self-contained program).
_R_CACC = (1, 2, 3, 4)
_R_PACC = (5, 6)
_R_TOKS = 9
_R_SHARED = 10
_R_SH = 11
_R_OUT = 12
_R_T0, _R_T1 = 14, 15
_R_TOK = 16
_R_I = 18
_R_TRIPS = 19
_R_TID = 20
_R_NCTX = 21
_R_DIV = 24
_R_CMP = 25


class RecordedTrace:
    """A windowed, token-compressed per-thread commit recording."""

    def __init__(
        self,
        app: str,
        config: str,
        threads: int,
        scale: float,
        window: int,
        source_digest: str,
        tokens: list[list[int]],
        window_count: int,
    ) -> None:
        self.app = app
        self.config = config
        self.threads = threads
        self.scale = scale
        self.window = window
        #: Digest of the recorded program image (provenance, not a key).
        self.source_digest = source_digest
        #: One token stream per context.
        self.tokens = tokens
        #: Number of distinct windows in the dictionary.
        self.window_count = window_count

    # ------------------------------------------------------- serialisation
    def to_json(self) -> str:
        """Canonical JSON (stable key order, stable layout): the digest
        and the golden byte-pins both hash exactly this text."""
        document = {
            "version": FORMAT_VERSION,
            "app": self.app,
            "config": self.config,
            "threads": self.threads,
            "scale": self.scale,
            "window": self.window,
            "source_digest": self.source_digest,
            "window_count": self.window_count,
            "tokens": self.tokens,
        }
        return json.dumps(document, indent=2, sort_keys=True) + "\n"

    def digest(self) -> str:
        """Content address of this recording."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def from_json(cls, text: str) -> "RecordedTrace":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not a recorded trace: {exc}") from exc
        if not isinstance(document, dict) or "tokens" not in document:
            raise ValueError("not a recorded trace: missing 'tokens'")
        version = document.get("version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"recorded trace format {version!r} unsupported "
                f"(expected {FORMAT_VERSION})"
            )
        tokens = [
            [int(token) for token in stream] for stream in document["tokens"]
        ]
        return cls(
            app=str(document["app"]),
            config=str(document["config"]),
            threads=int(document["threads"]),
            scale=float(document["scale"]),
            window=int(document["window"]),
            source_digest=str(document["source_digest"]),
            tokens=tokens,
            window_count=int(document["window_count"]),
        )

    @classmethod
    def load(cls, path: str | Path) -> "RecordedTrace":
        return cls.from_json(Path(path).read_text())


def record_trace(job, window: int = DEFAULT_WINDOW) -> RecordedTrace:
    """Run the :class:`~repro.harness.experiment.CampaignJob` *job* on
    the reference core and record per-thread commits.

    The job simulates as every harness path simulates it
    (:func:`repro.harness.experiment.simulate`), but the recording engine
    is pinned to the reference :class:`~repro.pipeline.smt.SMTCore` — the
    proven oracle — so replay fixtures never inherit a fast-engine bug.
    Each context's token stream keeps its first :data:`MAX_TOKENS` tokens
    (the replay program's data segment grows linearly with it).
    """
    from repro.harness.experiment import simulate

    if window < 1:
        raise ValueError("window must be at least 1 PC")
    obs = Observer(sink=MemorySink())
    run = simulate(replace(job, engine="reference"), obs)

    streams: list[list[int]] = [[] for _ in range(job.threads)]
    for event in obs.sink.events:
        if event.kind is not EventKind.COMMIT:
            continue
        # ``itid`` is the owner bitmask; ``threads`` is only the count.
        mask = event.data["itid"]
        for ctx in range(job.threads):
            if (mask >> ctx) & 1:
                streams[ctx].append(event.pc)

    token_of: dict[tuple[int, ...], int] = {}
    tokens: list[list[int]] = []
    for stream in streams:
        out = []
        for start in range(0, len(stream), window):
            piece = tuple(stream[start:start + window])
            out.append(token_of.setdefault(piece, len(token_of)))
        tokens.append(out[:MAX_TOKENS])
    return RecordedTrace(
        app=job.app,
        config=job.config.name,
        threads=job.threads,
        scale=job.scale,
        window=window,
        source_digest=run.workload.digest,
        tokens=tokens,
        window_count=len(token_of),
    )


class TraceReplayWorkload(Workload):
    """Replays a :class:`RecordedTrace` as a token-dispatch guest program.

    Multi-threaded convention: one shared image holds every context's
    token slice (padded with ``-1``); each context walks its own slice,
    dispatching on ``token & (REPLAY_HANDLERS - 1)`` through distinct
    handlers whose spin lengths derive from the token's upper bits.
    Contexts holding equal tokens at the same position execute identical
    paths (fetch-mergeable); unequal tokens force genuine divergence —
    the recorded coherence structure, replayed through the real FSM.
    """

    wtype = WorkloadType.MULTI_THREADED

    def __init__(self, trace: RecordedTrace, name: str | None = None) -> None:
        self.trace = trace
        self.name = name or f"replay-{trace.app}@{trace.digest()[:12]}"

    def valid_nctx(self, nctx: int) -> bool:
        return nctx == self.trace.threads

    def cache_token(self) -> str:
        return f"trace@{self.trace.digest()[:12]}"

    def build(
        self, nctx: int, scale: float = 1.0, seed: int | None = None
    ) -> WorkloadBuild:
        if not self.valid_nctx(nctx):
            raise ValueError(
                f"{self.name}: recorded with {self.trace.threads} threads, "
                f"cannot replay with {nctx}"
            )
        rng = self._rng(seed)
        streams = self.trace.tokens
        longest = max((len(s) for s in streams), default=0)
        trips = max(2, min(longest, int(round(longest * scale)) or longest))
        slice_len = max(trips, 2)
        flat: list[int] = []
        for stream in streams:
            padded = list(stream[:slice_len])
            padded += [-1] * (slice_len - len(padded))
            flat.extend(padded)

        b = ProgramBuilder(self.name)
        b.array(
            "shared_i",
            [rng.randrange(1, 1 << 20) for _ in range(_SHARED_WORDS)],
        )
        b.array("toks", flat)
        b.reserve("out", _OUT_WORDS * nctx)
        self._emit(b, slice_len, rng)
        return WorkloadBuild(
            self.name,
            nctx,
            self.wtype,
            b.build(),
            out_words=_OUT_WORDS,
            out_stride=_OUT_WORDS * WORD_SIZE,
        )

    def _emit(self, b: ProgramBuilder, slice_len: int, rng) -> None:
        b.inst(Opcode.TID, rd=_R_TID)
        b.inst(Opcode.NCTX, rd=_R_NCTX)
        b.la(_R_SHARED, "shared_i")
        b.la(_R_TOKS, "toks")
        b.la(_R_OUT, "out")
        # Per-context slices of the token and output arrays.
        b.alui(Opcode.SLLI, _R_T0, _R_TID, 3)
        b.li(_R_T1, slice_len)
        b.alu(Opcode.MUL, _R_T1, _R_T0, _R_T1)
        b.alu(Opcode.ADD, _R_TOKS, _R_TOKS, _R_T1)
        b.li(_R_T1, _OUT_WORDS)
        b.alu(Opcode.MUL, _R_T1, _R_T0, _R_T1)
        b.alu(Opcode.ADD, _R_OUT, _R_OUT, _R_T1)
        for index, reg in enumerate(_R_CACC):
            b.li(reg, 13 + 7 * index)
        for index, reg in enumerate(_R_PACC):
            b.alui(Opcode.ADDI, reg, _R_TID, 3 + index)
        b.li(_R_TRIPS, slice_len)
        b.li(_R_I, 0)

        b.label("main_loop")
        # Context-identical compute: a uniform-address shared load feeding
        # the common accumulators (the execute-identical stream).
        offset = rng.randrange(_SHARED_WORDS)
        b.alui(Opcode.SLLI, _R_T1, _R_I, 2)
        b.alui(Opcode.ADDI, _R_T1, _R_T1, offset)
        b.alui(Opcode.ANDI, _R_T1, _R_T1, _SHARED_WORDS - 1)
        b.alui(Opcode.SLLI, _R_T1, _R_T1, 3)
        b.alu(Opcode.ADD, _R_T1, _R_T1, _R_SHARED)
        b.load(_R_SH, _R_T1, disp=0)
        b.alu(Opcode.XOR, _R_CACC[0], _R_CACC[0], _R_SH)
        b.alu(Opcode.ADD, _R_CACC[1], _R_CACC[1], _R_SH)

        # This context's token for this position (private address chain).
        b.alui(Opcode.SLLI, _R_T1, _R_I, 3)
        b.alu(Opcode.ADD, _R_T1, _R_T1, _R_TOKS)
        b.load(_R_TOK, _R_T1, disp=0)
        skip = b.fresh_label("tok_skip")
        b.branch(Opcode.BLT, _R_TOK, 0, skip)  # -1 pads a finished stream

        b.alui(Opcode.ANDI, _R_T0, _R_TOK, REPLAY_HANDLERS - 1)
        labels = [b.fresh_label(f"tok_hnd{k}_") for k in range(REPLAY_HANDLERS)]
        join = b.fresh_label("tok_join")
        for k in range(1, REPLAY_HANDLERS):
            b.li(_R_CMP, k)
            b.branch(Opcode.BEQ, _R_T0, _R_CMP, labels[k])
        b.jump(labels[0])
        for k, label in enumerate(labels):
            b.label(label)
            acc = _R_PACC[k % len(_R_PACC)]
            for j in range(2 + k % 4):
                b.alui(Opcode.ADDI, acc, acc, k + j + 1)
                if j % 2:
                    b.alu(Opcode.XOR, acc, acc, _R_TOK)
            # Token-derived spin: path length varies with the recorded
            # window id, reproducing divergent path-length differences.
            b.alui(Opcode.SRLI, _R_DIV, _R_TOK, 3)
            b.alui(Opcode.ANDI, _R_DIV, _R_DIV, 3)
            b.alui(Opcode.ADDI, _R_DIV, _R_DIV, 1)
            spin = b.fresh_label(f"tok_spin{k}_")
            b.label(spin)
            b.alui(Opcode.ADDI, acc, acc, 1)
            b.alui(Opcode.ADDI, _R_DIV, _R_DIV, -1)
            b.branch(Opcode.BNE, _R_DIV, 0, spin)
            b.jump(join)
        b.label(join)
        # Remerge material: both sides of any divergence recompute the
        # same function of the context-identical loaded value.
        b.alui(Opcode.ADDI, _R_CACC[2], _R_SH, 21)
        b.label(skip)
        b.alui(Opcode.ADDI, _R_I, _R_I, 1)
        b.branch(Opcode.BLT, _R_I, _R_TRIPS, "main_loop")

        for offset, reg in enumerate(_R_CACC + _R_PACC):
            b.store(reg, _R_OUT, disp=offset * WORD_SIZE)
        b.halt()
