"""Register Alias Table and dynamic-instruction bookkeeping."""

import pytest

from repro.core.sync import FetchMode
from repro.func.executor import Executed
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.pipeline.dyninst import DynInst
from repro.pipeline.rat import RegisterAliasTable


# ------------------------------------------------------------------- RAT
def test_rat_set_get_and_prev():
    rat = RegisterAliasTable(2)
    assert rat.set(0, 5, 100) == -1
    assert rat.get(0, 5) == 100
    assert rat.set(0, 5, 101) == 100


def test_rat_unmapped_read_raises():
    rat = RegisterAliasTable(2)
    with pytest.raises(RuntimeError):
        rat.get(1, 3)


def test_rat_mapping_valid():
    rat = RegisterAliasTable(2)
    rat.set(0, 5, 100)
    assert rat.mapping_valid(0, 5, 100)
    rat.set(0, 5, 101)
    assert not rat.mapping_valid(0, 5, 100)


def test_rat_threads_independent():
    rat = RegisterAliasTable(2)
    rat.set(0, 5, 100)
    rat.set(1, 5, 200)
    assert rat.get(0, 5) == 100
    assert rat.get(1, 5) == 200


# --------------------------------------------------------------- DynInst
def _record(pc, inst, tid, result=0):
    return Executed(pc, inst, (), result, None, None, None, pc + 1, tid)


def _dyninst(itid=0b11):
    inst = Instruction(Opcode.ADDI, rd=1, rs1=2, imm=1)
    execs = {t: _record(4, inst, t, result=10 + t) for t in range(4) if itid >> t & 1}
    return DynInst(1, 4, inst, itid, execs, FetchMode.MERGE)


def test_dyninst_basic_properties():
    di = _dyninst(0b0110)
    assert di.num_threads == 2
    assert di.threads() == (1, 2)
    assert di.leader() == 1
    assert di.fetch_merged_width == 2
    assert not di.halt


def test_clone_partitions_execs():
    di = _dyninst(0b0111)
    piece = di.clone_for(0b0011)
    assert piece.threads() == (0, 1)
    assert set(piece.execs) == {0, 1}
    assert piece.seq == di.seq
    assert piece.fetch_merged_width == 3  # remembers the fetched width


def test_drop_thread():
    di = _dyninst(0b0011)
    di.pdst_by_tid = {0: 7, 1: 8}
    di.drop_thread(1)
    assert di.itid == 0b0001
    assert 1 not in di.execs
    assert di.pdst_by_tid == {0: 7}


def test_drop_thread_rekeys_mem_unit():
    di = _dyninst(0b0011)
    di.mem_pending = {0: None}
    di.drop_thread(0)
    # Remaining owner (thread 1) inherits a fresh access unit.
    assert di.mem_pending == {1: None}


def test_dest_phys_for_merged_and_split():
    di = _dyninst(0b0011)
    di.pdst = 40
    assert di.dest_phys_for(0) == 40
    di.pdst_by_tid = {0: 40, 1: 41}
    assert di.dest_phys_for(1) == 41


def test_result_for():
    di = _dyninst(0b0011)
    assert di.result_for(0) == 10
    assert di.result_for(1) == 11


def test_halt_flag():
    inst = Instruction(Opcode.HALT)
    di = DynInst(1, 0, inst, 0b1, {0: _record(0, inst, 0)}, FetchMode.DETECT)
    assert di.halt
