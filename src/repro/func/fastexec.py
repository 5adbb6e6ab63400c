"""Pre-decoded functional execution: the pipelines' instruction interpreter.

The reference :class:`~repro.func.executor.FunctionalExecutor` re-dispatches
every dynamic instruction through a ~50-way ``if op is ...`` chain.  Both
simulation engines' oracles instead *decode once*: ``SMTCore`` runs
:func:`decode_program` over each distinct program once per core, building
one specialized closure per PC with every decode-time decision (opcode
dispatch, source-register list, destination presence, immediate
normalization, fall-through PC) already taken.  Stepping is then one list
index plus one call.

:class:`FastExecutor` is a drop-in subclass of the reference executor and is
bit-identical to it by construction:

* every closure performs the same operations in the same order as the
  reference ``_dispatch`` arm, including the explicit guards (division by
  zero, negative square root) with the exact same :class:`ExecutionError`
  messages;
* any other invalid operation is wrapped in the same uniform
  ``invalid {OP} at pc {pc}`` message;
* a PC whose instruction cannot be specialized (e.g. a control instruction
  with no resolved target, or a register operand its op does not use)
  simply keeps a ``None`` slot, and the step falls back to the reference
  interpreter for that instruction.

``tests/test_fastexec_equivalence.py`` pins this equivalence step by step
against the reference interpreter: every built-in and registry workload,
the seeded fuzz programs (hundreds in the nightly run), every opcode, and
each trap.
"""

from __future__ import annotations

import math

from repro.func.executor import (
    Executed,
    ExecutionError,
    FunctionalExecutor,
    _int_div,
    _int_rem,
    to_s64,
)
from repro.isa.opcodes import Opcode

_MASK64 = (1 << 64) - 1
_SIGN64 = 1 << 63
_TWO64 = 1 << 64

_ERRS = (TypeError, ValueError, OverflowError, ZeroDivisionError)

#: Binary register-register integer ops, wrapped to signed 64-bit.
_INT2 = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SLL: lambda a, b: a << (b & 63),
    Opcode.SRL: lambda a, b: (a & _MASK64) >> (b & 63),
    Opcode.SRA: lambda a, b: a >> (b & 63),
}

#: Register-immediate integer ops, wrapped to signed 64-bit.
_INT_IMM = {
    Opcode.ADDI: lambda a, imm: a + imm,
    Opcode.ANDI: lambda a, imm: a & imm,
    Opcode.ORI: lambda a, imm: a | imm,
    Opcode.XORI: lambda a, imm: a ^ imm,
    Opcode.SLLI: lambda a, imm: a << (imm & 63),
    Opcode.SRLI: lambda a, imm: (a & _MASK64) >> (imm & 63),
}

#: Binary ops whose result is used as-is (no 64-bit wrap).
_GEN2 = {
    Opcode.SLT: lambda a, b: 1 if a < b else 0,
    Opcode.SEQ: lambda a, b: 1 if a == b else 0,
    Opcode.FADD: lambda a, b: float(a) + float(b),
    Opcode.FSUB: lambda a, b: float(a) - float(b),
    Opcode.FMUL: lambda a, b: float(a) * float(b),
    Opcode.FMIN: lambda a, b: min(float(a), float(b)),
    Opcode.FMAX: lambda a, b: max(float(a), float(b)),
    Opcode.FSLT: lambda a, b: 1 if float(a) < float(b) else 0,
    Opcode.FSEQ: lambda a, b: 1 if float(a) == float(b) else 0,
}

#: Unary ops whose result is used as-is.
_GEN1 = {
    Opcode.FNEG: lambda a: -float(a),
    Opcode.FABS: lambda a: abs(float(a)),
    Opcode.FCVT: lambda a: float(a),
    Opcode.FTOI: lambda a: to_s64(int(a)),
}

_BRANCH_COND = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLT: lambda a, b: a < b,
    Opcode.BGE: lambda a, b: a >= b,
}

#: Ops whose step closures write no destination register.
_NO_RESULT = frozenset(_BRANCH_COND) | {
    Opcode.SW, Opcode.FSW, Opcode.JR, Opcode.SEND, Opcode.NOP, Opcode.HINT,
    Opcode.HALT,
}

#: Ops whose step closures record no source values.
_NO_SOURCES = frozenset({
    Opcode.LI, Opcode.FLI, Opcode.J, Opcode.JAL, Opcode.TID, Opcode.NCTX,
    Opcode.NOP, Opcode.HINT, Opcode.HALT,
})


def _src_reader(srcs):
    """Closure building ``tuple(regs[r] for r in srcs)`` for 0/1/2 sources."""
    if not srcs:
        return lambda regs: ()
    if len(srcs) == 1:
        s0 = srcs[0]
        return lambda regs: (regs[s0],)
    s0, s1 = srcs
    return lambda regs: (regs[s0], regs[s1])


def _compile(pc, inst):
    """Specialized step closure for *inst* at *pc*, or None to fall back.

    Each closure takes the :class:`~repro.func.state.ArchState`, applies the
    instruction exactly as the reference interpreter would, and returns the
    :class:`Executed` record.
    """
    op = inst.op
    npc = pc + 1
    rs1 = inst.rs1
    rs2 = inst.rs2
    imm = inst.imm
    dst = inst.dst
    target = inst.target
    read = _src_reader(inst.srcs)
    opname = op.name
    if (dst is not None and op in _NO_RESULT) or (
        inst.srcs and op in _NO_SOURCES
    ):
        # Malformed operands (a destination on an op without a result,
        # sources on an op that reads none): the reference interpreter
        # still writes the None result and records the source values.
        return None

    fn2 = _INT2.get(op)
    if fn2 is not None:
        def step_int2(state):
            regs = state.regs
            try:
                r = to_s64(fn2(regs[rs1], regs[rs2]))
            except _ERRS as exc:
                raise ExecutionError(
                    f"context {state.tid}: invalid {opname} at pc {pc}: {exc}"
                ) from exc
            sv = read(regs)
            if dst is not None:
                regs[dst] = r
            state.pc = npc
            return Executed(pc, inst, sv, r, None, None, None, npc, state.tid)
        return step_int2

    fni = _INT_IMM.get(op)
    if fni is not None:
        def step_int_imm(state):
            regs = state.regs
            try:
                r = to_s64(fni(regs[rs1], imm))
            except _ERRS as exc:
                raise ExecutionError(
                    f"context {state.tid}: invalid {opname} at pc {pc}: {exc}"
                ) from exc
            sv = read(regs)
            if dst is not None:
                regs[dst] = r
            state.pc = npc
            return Executed(pc, inst, sv, r, None, None, None, npc, state.tid)
        return step_int_imm

    fng = _GEN2.get(op)
    if fng is not None:
        def step_gen2(state):
            regs = state.regs
            try:
                r = fng(regs[rs1], regs[rs2])
            except _ERRS as exc:
                raise ExecutionError(
                    f"context {state.tid}: invalid {opname} at pc {pc}: {exc}"
                ) from exc
            sv = read(regs)
            if dst is not None:
                regs[dst] = r
            state.pc = npc
            return Executed(pc, inst, sv, r, None, None, None, npc, state.tid)
        return step_gen2

    fnu = _GEN1.get(op)
    if fnu is not None:
        def step_gen1(state):
            regs = state.regs
            try:
                r = fnu(regs[rs1])
            except _ERRS as exc:
                raise ExecutionError(
                    f"context {state.tid}: invalid {opname} at pc {pc}: {exc}"
                ) from exc
            sv = read(regs)
            if dst is not None:
                regs[dst] = r
            state.pc = npc
            return Executed(pc, inst, sv, r, None, None, None, npc, state.tid)
        return step_gen1

    if op is Opcode.SLTI:
        def step_slti(state):
            regs = state.regs
            try:
                r = 1 if regs[rs1] < imm else 0
            except _ERRS as exc:
                raise ExecutionError(
                    f"context {state.tid}: invalid SLTI at pc {pc}: {exc}"
                ) from exc
            sv = read(regs)
            if dst is not None:
                regs[dst] = r
            state.pc = npc
            return Executed(pc, inst, sv, r, None, None, None, npc, state.tid)
        return step_slti

    if op is Opcode.LI or op is Opcode.FLI:
        try:
            const = to_s64(imm) if op is Opcode.LI else float(imm)
        except _ERRS:
            return None  # reference path reproduces the runtime error
        def step_const(state):
            regs = state.regs
            if dst is not None:
                regs[dst] = const
            state.pc = npc
            return Executed(
                pc, inst, (), const, None, None, None, npc, state.tid
            )
        return step_const

    if op is Opcode.DIV or op is Opcode.REM:
        div = _int_div if op is Opcode.DIV else _int_rem
        kind = "division" if op is Opcode.DIV else "remainder"
        def step_idiv(state):
            regs = state.regs
            try:
                if regs[rs2] == 0:
                    raise ExecutionError(
                        f"context {state.tid}: integer {kind} by zero at pc {pc}"
                    )
                r = to_s64(div(regs[rs1], regs[rs2]))
            except ExecutionError:
                raise
            except _ERRS as exc:
                raise ExecutionError(
                    f"context {state.tid}: invalid {opname} at pc {pc}: {exc}"
                ) from exc
            sv = read(regs)
            if dst is not None:
                regs[dst] = r
            state.pc = npc
            return Executed(pc, inst, sv, r, None, None, None, npc, state.tid)
        return step_idiv

    if op is Opcode.FDIV:
        def step_fdiv(state):
            regs = state.regs
            try:
                divisor = float(regs[rs2])
                if divisor == 0.0:
                    raise ExecutionError(
                        f"context {state.tid}: fp division by zero at pc {pc}"
                    )
                r = float(regs[rs1]) / divisor
            except ExecutionError:
                raise
            except _ERRS as exc:
                raise ExecutionError(
                    f"context {state.tid}: invalid FDIV at pc {pc}: {exc}"
                ) from exc
            sv = read(regs)
            if dst is not None:
                regs[dst] = r
            state.pc = npc
            return Executed(pc, inst, sv, r, None, None, None, npc, state.tid)
        return step_fdiv

    if op is Opcode.FSQRT:
        def step_fsqrt(state):
            regs = state.regs
            try:
                operand = float(regs[rs1])
                if operand < 0.0:
                    raise ExecutionError(
                        f"context {state.tid}: square root of negative value "
                        f"at pc {pc}"
                    )
                r = math.sqrt(operand)
            except ExecutionError:
                raise
            except _ERRS as exc:
                raise ExecutionError(
                    f"context {state.tid}: invalid FSQRT at pc {pc}: {exc}"
                ) from exc
            sv = read(regs)
            if dst is not None:
                regs[dst] = r
            state.pc = npc
            return Executed(pc, inst, sv, r, None, None, None, npc, state.tid)
        return step_fsqrt

    if op is Opcode.LW or op is Opcode.FLW:
        def step_load(state):
            regs = state.regs
            try:
                addr = to_s64(regs[rs1] + imm)
                r = state.memory.load(addr)
            except _ERRS as exc:
                raise ExecutionError(
                    f"context {state.tid}: invalid {opname} at pc {pc}: {exc}"
                ) from exc
            sv = read(regs)
            if dst is not None:
                regs[dst] = r
            state.pc = npc
            return Executed(pc, inst, sv, r, addr, None, None, npc, state.tid)
        return step_load

    if op is Opcode.SW or op is Opcode.FSW:
        def step_store(state):
            regs = state.regs
            try:
                addr = to_s64(regs[rs1] + imm)
                sval = regs[rs2]
                state.memory.store(addr, sval)
            except _ERRS as exc:
                raise ExecutionError(
                    f"context {state.tid}: invalid {opname} at pc {pc}: {exc}"
                ) from exc
            sv = read(regs)
            state.pc = npc
            return Executed(pc, inst, sv, None, addr, sval, None, npc, state.tid)
        return step_store

    cond = _BRANCH_COND.get(op)
    if cond is not None:
        if target is None:
            return None
        def step_branch(state):
            regs = state.regs
            try:
                taken = cond(regs[rs1], regs[rs2])
            except _ERRS as exc:
                raise ExecutionError(
                    f"context {state.tid}: invalid {opname} at pc {pc}: {exc}"
                ) from exc
            nxt = target if taken else npc
            sv = read(regs)
            state.pc = nxt
            return Executed(pc, inst, sv, None, None, None, taken, nxt, state.tid)
        return step_branch

    if op is Opcode.J or op is Opcode.JAL:
        if target is None:
            return None
        link = pc + 1 if op is Opcode.JAL else None
        def step_jump(state):
            regs = state.regs
            if dst is not None:
                regs[dst] = link
            state.pc = target
            return Executed(
                pc, inst, (), link, None, None, True, target, state.tid
            )
        return step_jump

    if op is Opcode.JR:
        def step_jr(state):
            regs = state.regs
            nxt = regs[rs1]
            sv = read(regs)
            state.pc = nxt
            return Executed(pc, inst, sv, None, None, None, True, nxt, state.tid)
        return step_jr

    if op is Opcode.SEND:
        def step_send(state):
            regs = state.regs
            try:
                if state.channels is None:
                    raise ExecutionError("SEND outside a message-passing job")
                state.channels.send(regs[rs1], regs[rs2])
            except ExecutionError:
                raise
            except _ERRS as exc:
                raise ExecutionError(
                    f"context {state.tid}: invalid SEND at pc {pc}: {exc}"
                ) from exc
            sv = read(regs)
            state.pc = npc
            return Executed(pc, inst, sv, None, None, None, None, npc, state.tid)
        return step_send

    if op is Opcode.TRECV:
        def step_trecv(state):
            regs = state.regs
            try:
                if state.channels is None:
                    raise ExecutionError("TRECV outside a message-passing job")
                message = state.channels.try_recv(regs[rs1])
            except ExecutionError:
                raise
            except _ERRS as exc:
                raise ExecutionError(
                    f"context {state.tid}: invalid TRECV at pc {pc}: {exc}"
                ) from exc
            r = -1 if message is None else message
            sv = read(regs)
            if dst is not None:
                regs[dst] = r
            state.pc = npc
            return Executed(pc, inst, sv, r, None, None, None, npc, state.tid)
        return step_trecv

    if op is Opcode.TID or op is Opcode.NCTX:
        want_tid = op is Opcode.TID
        def step_sys(state):
            r = state.tid if want_tid else state.nctx
            if dst is not None:
                state.regs[dst] = r
            state.pc = npc
            return Executed(pc, inst, (), r, None, None, None, npc, state.tid)
        return step_sys

    if op is Opcode.NOP or op is Opcode.HINT:
        def step_nop(state):
            state.pc = npc
            return Executed(pc, inst, (), None, None, None, None, npc, state.tid)
        return step_nop

    if op is Opcode.HALT:
        def step_halt(state):
            state.halted = True
            return Executed(pc, inst, (), None, None, None, None, pc, state.tid)
        return step_halt

    return None


def decode_program(program):
    """One specialized step closure (or None) per PC of *program*."""
    return [_compile(pc, inst) for pc, inst in enumerate(program.instructions)]


class FastExecutor(FunctionalExecutor):
    """Reference-identical executor driven by a pre-decoded dispatch table."""

    def __init__(self, state, ops=None) -> None:
        super().__init__(state)
        self._ops = decode_program(state.program) if ops is None else ops

    def step(self) -> Executed:
        state = self.state
        if state.halted:
            raise ExecutionError(f"context {state.tid} stepped after HALT")
        pc = state.pc
        ops = self._ops
        if not 0 <= pc < len(ops):
            raise ExecutionError(f"context {state.tid}: PC {pc} out of range")
        fn = ops[pc]
        if fn is None:
            return FunctionalExecutor.step(self)
        record = fn(state)
        self.instret += 1
        return record
