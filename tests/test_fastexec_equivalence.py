"""The pre-decoded executor against the reference interpreter, step by step.

Both simulation engines step :class:`~repro.func.fastexec.FastExecutor`
oracles, so no engine-level differential compares it with the ``if``-chain
:class:`~repro.func.executor.FunctionalExecutor` any more.  These tests do
it directly: every built-in and registry workload program on every
context, the differential suite's seeded fuzz programs (budget set by
``--runs``), and each architectural trap.  Records must be equal field for
field (``repr`` also separates ``1`` from ``1.0`` and ``0.0`` from
``-0.0``), the final architectural state must be identical, and a trap
must raise the same :class:`ExecutionError` message on both sides.
"""

import pytest

from repro.func.executor import ExecutionError, FunctionalExecutor
from repro.func.fastexec import FastExecutor
from repro.func.state import ArchState
from repro.isa.assembler import assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.mem.memory import AddressSpace
from repro.workloads.engine import get_workload, workload_names
from repro.workloads.generator import build_workload
from repro.workloads.message_passing import PATTERNS, build_mp_workload
from repro.workloads.profiles import APP_ORDER, get_profile
from tests.test_fastpath_differential import fuzz_case

# Parametrizes ``fuzz_index`` with the differential suite's --runs budget.
from tests.test_fastpath_differential import pytest_generate_tests  # noqa: F401

SCALE = 0.2
#: Round-robin rounds before a workload counts as hung.
MAX_ROUNDS = 500_000


def _arch(state):
    return repr((state.pc, state.halted, state.regs))


def _lockstep(build):
    """Run a reference and a pre-decoded copy of *build*'s job side by side.

    Each side gets its own freshly built job (own memory, own message
    network).  Contexts step round-robin in the same order on both sides,
    so shared-memory and channel traffic replays identically.  Returns
    the number of instructions stepped.
    """
    ref_job, fast_job = build.job(), build.job()
    ref = [FunctionalExecutor(s) for s in ref_job.make_states()]
    fast = [FastExecutor(s) for s in fast_job.make_states()]
    steps = 0
    for _ in range(MAX_ROUNDS):
        live = False
        for ctx, (r, f) in enumerate(zip(ref, fast)):
            assert f.state.halted == r.state.halted, f"context {ctx}"
            if r.state.halted:
                continue
            live = True
            want, got = r.step(), f.step()
            assert repr(tuple(got)) == repr(tuple(want)), (
                f"context {ctx} at step {steps}"
            )
            steps += 1
        if not live:
            break
    else:  # pragma: no cover - a hung workload is a generator bug
        pytest.fail(f"{build.name} did not halt in {MAX_ROUNDS} rounds")
    for ctx, (r, f) in enumerate(zip(ref, fast)):
        assert _arch(f.state) == _arch(r.state), f"context {ctx}"
        assert f.instret == r.instret
    for r_space, f_space in zip(ref_job.address_spaces, fast_job.address_spaces):
        assert repr(sorted(f_space.snapshot().items())) == repr(
            sorted(r_space.snapshot().items())
        )
    if ref_job.channels is not None:
        assert fast_job.channels.total_queued() == ref_job.channels.total_queued()
    return steps


# ---------------------------------------------------------------- workloads
@pytest.mark.parametrize("app", APP_ORDER)
def test_builtin_workloads_step_identically(app):
    assert _lockstep(build_workload(get_profile(app), 4, scale=SCALE)) > 0


@pytest.mark.parametrize("app", APP_ORDER[:4])
def test_hinted_workloads_step_identically(app):
    build = build_workload(get_profile(app), 2, scale=SCALE, hints=True)
    assert _lockstep(build) > 0


def test_fuzz_programs_step_identically(fuzz_index):
    app, nctx, seed = fuzz_case(fuzz_index)
    build = build_workload(get_profile(app), nctx, scale=SCALE, seed=seed)
    assert _lockstep(build) > 0


@pytest.mark.parametrize("pattern", PATTERNS)
def test_message_passing_workloads_step_identically(pattern):
    assert _lockstep(build_mp_workload(4, pattern=pattern)) > 0


@pytest.mark.parametrize("name", workload_names())
def test_registry_workloads_step_identically(name):
    workload = get_workload(name)
    nctx = 4 if workload.valid_nctx(4) else 2
    assert _lockstep(workload.build(nctx, scale=SCALE)) > 0


# ------------------------------------------------------------------ opcodes
#: Operand values: int edge cases (sign, shift widths, 64-bit wrap) and
#: floats, so mixed int/float operands also reach the invalid-op wrapper.
VALUES = (0, 1, -1, 3, -7, 31, 32, 63, 64, 2**62, 2**63 - 1, -(2**63),
          0.0, -0.0, 2.5, -1.5, 1e300, float("inf"))
INT_VALUES = tuple(v for v in VALUES if isinstance(v, int))

BINARY = (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM,
          Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SLL, Opcode.SRL,
          Opcode.SRA, Opcode.SLT, Opcode.SEQ, Opcode.FADD, Opcode.FSUB,
          Opcode.FMUL, Opcode.FDIV, Opcode.FMIN, Opcode.FMAX, Opcode.FSLT,
          Opcode.FSEQ, Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
          Opcode.SW, Opcode.FSW)
IMMEDIATE = (Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SLLI,
             Opcode.SRLI, Opcode.SLTI, Opcode.LW, Opcode.FLW)
UNARY = (Opcode.FSQRT, Opcode.FNEG, Opcode.FABS, Opcode.FCVT, Opcode.FTOI,
         Opcode.JR)
NO_OPERAND = (Opcode.LI, Opcode.FLI, Opcode.J, Opcode.JAL, Opcode.TID,
              Opcode.NCTX, Opcode.NOP, Opcode.HINT, Opcode.HALT)
#: Covered by the message-passing workloads and the trap tests below.
MESSAGE = (Opcode.SEND, Opcode.TRECV)


def _step_once(op, rs1=None, rs2=None, **fields):
    """One step of *op* at pc 1 on each executor, with and without a
    destination register (a destination on an op without a result is
    malformed, but must still match); outcome, state and memory must be
    identical, traps included."""
    for rd in (3, None):
        inst = Instruction(op, rd=rd, rs1=1, rs2=2, **fields)
        program = Program([Instruction(Opcode.NOP), inst,
                           Instruction(Opcode.HALT)])
        outcomes = []
        for cls in (FunctionalExecutor, FastExecutor):
            state = ArchState(program, AddressSpace(), tid=2, nctx=4)
            state.pc = 1
            state.regs[1], state.regs[2] = rs1, rs2
            try:
                outcome = repr(tuple(cls(state).step()))
            except ExecutionError as exc:
                outcome = f"trap: {exc}"
            outcomes.append((outcome, _arch(state),
                             repr(sorted(state.memory.snapshot().items()))))
        assert outcomes[1] == outcomes[0], (inst, rs1, rs2)


def test_opcode_cases_cover_the_isa():
    cases = BINARY + IMMEDIATE + UNARY + NO_OPERAND + MESSAGE
    assert sorted(op.name for op in cases) == sorted(op.name for op in Opcode)


@pytest.mark.parametrize("op", BINARY, ids=lambda op: op.name)
def test_binary_opcodes_match(op):
    for a in VALUES:
        for b in VALUES:
            _step_once(op, a, b, imm=8, target=0)


@pytest.mark.parametrize("op", IMMEDIATE, ids=lambda op: op.name)
def test_immediate_opcodes_match(op):
    for a in VALUES:
        for imm in INT_VALUES:
            _step_once(op, a, 0, imm=imm)


@pytest.mark.parametrize("op", UNARY, ids=lambda op: op.name)
def test_unary_opcodes_match(op):
    for a in VALUES:
        _step_once(op, a)


@pytest.mark.parametrize("op", NO_OPERAND, ids=lambda op: op.name)
def test_operandless_opcodes_match(op):
    for imm in VALUES:
        _step_once(op, imm=imm, target=2)


# -------------------------------------------------------------------- traps
def _pair(program):
    """A reference and a pre-decoded executor, each on a fresh state."""
    return tuple(
        cls(ArchState(program, AddressSpace(dict(program.data))))
        for cls in (FunctionalExecutor, FastExecutor)
    )


def _assert_same_trap(ref, fast, max_steps=100):
    """Step both until they trap; the messages and states must agree."""
    messages = []
    for ex in (ref, fast):
        with pytest.raises(ExecutionError) as excinfo:
            for _ in range(max_steps):
                ex.step()
        messages.append(str(excinfo.value))
    assert messages[1] == messages[0]
    # The trapping step mutated nothing, on either side.
    assert _arch(fast.state) == _arch(ref.state)
    assert fast.instret == ref.instret
    return messages[0]


@pytest.mark.parametrize(
    "src, match",
    [
        ("li r2, 9\ndiv r1, r2, r0\nhalt", "integer division by zero"),
        ("li r2, 9\nrem r1, r2, r0\nhalt", "integer remainder by zero"),
        ("fli f1, 2.0\nfli f2, 0.0\nfdiv f0, f1, f2\nhalt",
         "fp division by zero"),
        ("fli f1, -1.0\nfsqrt f0, f1\nhalt", "square root of negative"),
        ("li r1, 3\nlw r2, 0(r1)\nhalt", "invalid LW at pc 1"),
        ("li r1, -16\nli r2, 1\nsw r2, 0(r1)\nhalt", "invalid SW at pc 2"),
    ],
)
def test_value_traps_match(src, match):
    message = _assert_same_trap(*_pair(assemble(src)))
    assert match in message


@pytest.mark.parametrize("pc", [5, -1])
def test_pc_out_of_range_matches(pc):
    ref, fast = _pair(Program([Instruction(Opcode.J, target=0)]))
    ref.state.pc = fast.state.pc = pc
    assert "out of range" in _assert_same_trap(ref, fast)


def test_step_after_halt_matches():
    ref, fast = _pair(assemble("li r1, 1\nhalt"))
    assert "stepped after HALT" in _assert_same_trap(ref, fast)
    assert ref.state.halted and fast.state.halted


@pytest.mark.parametrize("op", ["send r1, r1", "trecv r2, r1"])
def test_message_ops_outside_message_passing_match(op):
    message = _assert_same_trap(*_pair(assemble(f"li r1, 0\n{op}\nhalt")))
    assert "outside a message-passing job" in message


def test_undecodable_instruction_falls_back_to_reference():
    """A PC the decoder leaves empty runs the reference interpreter, traps
    and all: an LI whose immediate is not an int cannot be specialized."""
    program = Program([Instruction(Opcode.LI, rd=1, imm=1.5),
                       Instruction(Opcode.HALT)])
    ref, fast = _pair(program)
    assert fast._ops[0] is None
    assert "invalid LI at pc 0" in _assert_same_trap(ref, fast)
