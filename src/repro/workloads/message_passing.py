"""Message-passing workloads (extension — the paper's §7 future work).

The paper's §3.1 taxonomy has three SPMD categories; message-passing is
named but never evaluated.  These workloads fill the gap: N ranked
processes with private address spaces exchange values through SEND/TRECV
channels each iteration, around a context-identical compute block.

Two communication patterns:

* ``ring``  — rank r sends to rank (r+1) mod N and receives from r-1
  (the classic halo/pipeline shape);
* ``pairs`` — rank r exchanges with rank r^1 (nearest-neighbour swap).

Receives are software spin loops over the polling TRECV instruction, so
any fair fetch interleaving terminates; each iteration sends exactly one
message per rank and receives exactly one, so channels are empty at HALT.
"""

from __future__ import annotations

import random

from repro.core.config import WorkloadType
from repro.isa.opcodes import Opcode
from repro.isa.program import WORD_SIZE
from repro.workloads.dsl import ProgramBuilder
from repro.workloads.generator import WorkloadBuild

# Register plan.
R_CACC = (1, 2, 3, 4)  # common accumulators
R_PACC = 5  # private accumulator (the exchanged value)
R_RECVD = 6  # count of received messages
R_SHARED = 9
R_OUT = 12
R_T0, R_T1 = 14, 15
R_MSG = 16
R_I = 18
R_TRIPS = 19
R_TID = 20
R_NCTX = 21
R_DEST = 22
R_NEG1 = 25

SHARED_WORDS = 64
OUT_WORDS = 8

PATTERNS = ("ring", "pairs")


def build_mp_workload(
    nctx: int,
    pattern: str = "ring",
    iterations: int = 32,
    common_ops: int = 16,
    seed: int | None = None,
) -> WorkloadBuild:
    """Generate an N-rank message-passing workload."""
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; choose from {PATTERNS}")
    if nctx < 2:
        raise ValueError("message passing needs at least two ranks")
    if pattern == "pairs" and nctx % 2:
        raise ValueError("the 'pairs' pattern needs an even rank count")
    rng = random.Random(seed if seed is not None else hash(pattern) & 0xFFFF)

    b = ProgramBuilder(f"mp-{pattern}")
    b.array("shared_i", [rng.randrange(1, 1 << 16) for _ in range(SHARED_WORDS)])
    b.reserve("out", OUT_WORDS)

    b.inst(Opcode.TID, rd=R_TID)
    b.inst(Opcode.NCTX, rd=R_NCTX)
    if pattern == "ring":
        # dest = (tid + 1) mod nctx — branchless, as MPI rank arithmetic
        # is: a control divergence here would split the threads before the
        # common state is even initialised.
        b.alui(Opcode.ADDI, R_DEST, R_TID, 1)
        b.alu(Opcode.REM, R_DEST, R_DEST, R_NCTX)
    else:  # pairs: dest = tid ^ 1
        b.alui(Opcode.XORI, R_DEST, R_TID, 1)
    b.la(R_SHARED, "shared_i")
    b.la(R_OUT, "out")
    b.li(R_TRIPS, iterations)
    for index, reg in enumerate(R_CACC):
        b.li(reg, 11 + 5 * index)
    b.alui(Opcode.ADDI, R_PACC, R_TID, 13)  # rank-seeded payload
    b.li(R_RECVD, 0)
    b.li(R_NEG1, -1)
    b.li(R_T0, 3)
    b.li(R_I, 0)

    b.label("main_loop")
    # Context-identical compute: shared loads feeding common accumulators.
    for k in range(common_ops):
        if k % 5 == 0:
            b.alui(Opcode.ADDI, R_T1, R_I, rng.randrange(SHARED_WORDS))
            b.alui(Opcode.ANDI, R_T1, R_T1, SHARED_WORDS - 1)
            b.alui(Opcode.SLLI, R_T1, R_T1, 3)
            b.alu(Opcode.ADD, R_T1, R_T1, R_SHARED)
            b.load(R_T0, R_T1, disp=0)
        dst = R_CACC[k % len(R_CACC)]
        op = rng.choice((Opcode.ADD, Opcode.XOR, Opcode.OR, Opcode.SUB))
        b.alu(op, dst, dst, R_T0)

    # Exchange: send my payload, spin-receive my neighbour's.
    b.inst(Opcode.SEND, rs1=R_DEST, rs2=R_PACC)
    spin = b.fresh_label("recv_spin")
    b.label(spin)
    b.inst(Opcode.TRECV, rd=R_MSG, rs1=R_TID)
    b.branch(Opcode.BEQ, R_MSG, R_NEG1, spin)
    b.alu(Opcode.ADD, R_PACC, R_PACC, R_MSG)
    b.alui(Opcode.ANDI, R_PACC, R_PACC, (1 << 30) - 1)  # keep payloads bounded
    b.alui(Opcode.ADDI, R_RECVD, R_RECVD, 1)

    b.alui(Opcode.ADDI, R_I, R_I, 1)
    b.branch(Opcode.BLT, R_I, R_TRIPS, "main_loop")

    for offset, reg in enumerate(R_CACC + (R_PACC, R_RECVD)):
        b.store(reg, R_OUT, disp=offset * WORD_SIZE)
    b.halt()
    return WorkloadBuild(f"mp-{pattern}", nctx, WorkloadType.MESSAGE_PASSING,
                         b.build(), out_words=OUT_WORDS)
