"""Static instruction source/destination derivation."""

from repro.isa.instruction import Instruction
from repro.isa.opcodes import DEFAULT_LATENCY, Opcode
from repro.isa.registers import ZERO


def test_alu_sources_and_dest():
    inst = Instruction(Opcode.ADD, rd=3, rs1=1, rs2=2)
    assert inst.srcs == (1, 2)
    assert inst.dst == 3


def test_zero_register_reads_are_not_dependences():
    inst = Instruction(Opcode.ADD, rd=3, rs1=ZERO, rs2=2)
    assert inst.srcs == (2,)


def test_zero_register_writes_are_discarded():
    inst = Instruction(Opcode.ADDI, rd=ZERO, rs1=1, imm=5)
    assert inst.dst is None


def test_duplicate_source_collapses():
    inst = Instruction(Opcode.ADD, rd=3, rs1=2, rs2=2)
    assert inst.srcs == (2,)


def test_store_has_no_dest():
    inst = Instruction(Opcode.SW, rs1=5, rs2=6, imm=8)
    assert inst.dst is None
    assert set(inst.srcs) == {5, 6}
    assert inst.is_store and inst.is_mem and not inst.is_load


def test_load_flags():
    inst = Instruction(Opcode.LW, rd=1, rs1=5, imm=0)
    assert inst.is_load and inst.is_mem and not inst.is_store
    assert inst.srcs == (5,)
    assert inst.dst == 1


def test_branch_flags_and_target():
    inst = Instruction(Opcode.BNE, rs1=1, rs2=2, target=7)
    assert inst.is_branch and inst.is_control
    assert inst.target == 7
    assert inst.dst is None


def test_jal_writes_link_register():
    inst = Instruction(Opcode.JAL, rd=31, target=0)
    assert inst.is_jump and inst.is_control
    assert inst.dst == 31


def test_nullary_instruction():
    inst = Instruction(Opcode.HALT)
    assert inst.srcs == ()
    assert inst.dst is None


def test_latency_is_the_class_default():
    for op in Opcode:
        inst = Instruction(op)
        assert inst.latency == DEFAULT_LATENCY[inst.klass]
