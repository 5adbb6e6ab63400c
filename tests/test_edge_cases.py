"""Edge cases across modules that the main suites don't reach."""

import pytest

from repro.core.config import MMTConfig
from repro.func.executor import FunctionalExecutor
from repro.func.state import ArchState
from repro.isa.assembler import assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.mem.memory import AddressSpace
from repro.pipeline.config import MachineConfig
from repro.pipeline.job import Job
from repro.pipeline.smt import SMTCore


def test_program_with_nonzero_entry():
    prog = Program(
        [Instruction(Opcode.HALT),
         Instruction(Opcode.LI, rd=1, imm=7),
         Instruction(Opcode.HALT)],
        entry=1,
    )
    state = ArchState(prog, AddressSpace())
    FunctionalExecutor(state).run()
    assert state.regs[1] == 7


def test_jr_computed_target():
    prog = assemble(
        """
        li r1, 3
        jr r1
        li r2, 99
        li r2, 1
        halt
        """
    )
    state = ArchState(prog, AddressSpace())
    FunctionalExecutor(state).run()
    assert state.regs[2] == 1


def test_pipeline_jr_computed_target():
    prog = assemble(
        """
        li r1, 4
        jr r1
        nop
        nop
        li r2, 5
        halt
        """
    )
    job = Job.multi_threaded("t", prog, 1)
    core = SMTCore(MachineConfig(num_threads=1), MMTConfig.base(), job)
    core.run()
    assert core.states[0].regs[2] == 5


def test_pc_out_of_range_raises():
    from repro.func.executor import ExecutionError

    prog = Program([Instruction(Opcode.J, target=0)])
    state = ArchState(prog, AddressSpace())
    state.pc = 5
    with pytest.raises(ExecutionError):
        FunctionalExecutor(state).step()


# --------------------------------------------- uniform invalid-op trapping
def _run_asm(src):
    from repro.func.executor import FunctionalExecutor as FE

    prog = assemble(src)
    state = ArchState(prog, AddressSpace(dict(prog.data)))
    FE(state).run(max_steps=10_000)
    return state


def _raises_execution_error(src, match):
    from repro.func.executor import ExecutionError

    with pytest.raises(ExecutionError, match=match):
        _run_asm(src)


def test_integer_division_by_zero_raises_execution_error():
    _raises_execution_error("li r2, 9\ndiv r1, r2, r0\nhalt",
                            "division by zero")


def test_integer_remainder_by_zero_raises_execution_error():
    _raises_execution_error("li r2, 9\nrem r1, r2, r0\nhalt",
                            "remainder by zero")


def test_fp_division_by_zero_raises_execution_error():
    _raises_execution_error("fli f1, 2.0\nfli f2, 0.0\nfdiv f0, f1, f2\nhalt",
                            "division by zero")


def test_fp_sqrt_negative_raises_execution_error():
    _raises_execution_error("fli f1, -1.0\nfsqrt f0, f1\nhalt",
                            "square root of negative")


def test_unaligned_load_raises_execution_error():
    _raises_execution_error("li r1, 3\nlw r2, 0(r1)\nhalt", "unaligned load")


def test_negative_address_load_raises_execution_error():
    _raises_execution_error("li r1, -8\nlw r2, 0(r1)\nhalt",
                            "negative load address")


def test_unaligned_store_raises_execution_error():
    _raises_execution_error("li r1, 5\nli r2, 1\nsw r2, 0(r1)\nhalt",
                            "unaligned store")


def test_negative_address_store_raises_execution_error():
    _raises_execution_error("li r1, -16\nli r2, 1\nsw r2, 0(r1)\nhalt",
                            "negative store address")


def test_invalid_op_error_is_not_a_bare_value_error():
    """The uniform trap wraps the underlying cause, it doesn't leak it."""
    from repro.func.executor import ExecutionError

    try:
        _run_asm("li r1, 3\nlw r2, 0(r1)\nhalt")
    except ExecutionError as exc:
        assert isinstance(exc.__cause__, ValueError)
        assert "invalid LW at pc" in str(exc)
    else:  # pragma: no cover - the program must trap
        raise AssertionError("unaligned load did not trap")


def test_single_context_mmt_is_harmless():
    """MMT mechanisms on one thread behave like a plain core."""
    prog = assemble("li r1, 9\naddi r1, r1, 1\nhalt")
    base_job = Job.multi_threaded("a", prog, 1)
    base = SMTCore(MachineConfig(num_threads=1), MMTConfig.base(), base_job)
    base_stats = base.run()
    mmt_job = Job.multi_threaded("b", prog, 1)
    mmt = SMTCore(MachineConfig(num_threads=1), MMTConfig.mmt_fxr(), mmt_job)
    mmt_stats = mmt.run()
    assert base_stats.committed_thread_insts == mmt_stats.committed_thread_insts
    assert mmt_stats.splits_performed == 0


def test_empty_loop_bodies_halt_immediately():
    prog = assemble("halt")
    job = Job.multi_threaded("t", prog, 2)
    core = SMTCore(MachineConfig(num_threads=2), MMTConfig.mmt_fxr(), job)
    stats = core.run()
    assert stats.committed_thread_insts == 2
    assert stats.halted_threads == 2


def test_report_negative_and_large_numbers():
    from repro.harness.report import format_table

    text = format_table(
        [{"v": -1.23456, "n": 10**9}], columns=["v", "n"],
        float_format="{:+.2f}",
    )
    assert "-1.23" in text and "1000000000" in text


def test_format_stacked_bars_clamps_out_of_range():
    from repro.harness.report import format_stacked_bars

    rows = [{"k": "x", "a": 1.7, "b": -0.5}]
    text = format_stacked_bars(rows, "k", ["a", "b"], width=10)
    assert "x" in text  # no crash, bar clamped


def test_divergence_histogram_custom_buckets():
    from repro.profiling.divergence import divergence_histogram
    from repro.profiling.sharing import DivergentGap

    gaps = [DivergentGap(5, 5, 4, 1)]
    histogram = divergence_histogram(gaps, buckets=(2, 8))
    assert histogram == {2: 0.0, 8: 1.0}


def test_assembler_store_negative_displacement_roundtrip():
    prog = assemble(
        """
        la r1, buf
        addi r1, r1, 16
        li r2, 5
        sw r2, -8(r1)
        halt
        .data 0x100
        buf: .word 0 0 0
        """
    )
    mem = AddressSpace(dict(prog.data))
    FunctionalExecutor(ArchState(prog, mem)).run()
    assert mem.load(0x108) == 5


def test_four_identical_me_instances_merge_nearly_everything():
    from repro.workloads.generator import build_workload
    from repro.workloads.profiles import get_profile

    build = build_workload(get_profile("mcf"), 4, scale=0.2)
    job = build.limit_job()
    core = SMTCore(MachineConfig(num_threads=4), MMTConfig.limit(), job)
    stats = core.run()
    breakdown = stats.identified_breakdown()
    assert breakdown["exec_identical"] > 0.9
    assert stats.lvip_mispredicts == 0
