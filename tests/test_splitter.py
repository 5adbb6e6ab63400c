"""Instruction splitting: the filter/chooser stage (paper §4.2.2)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.itid import popcount, threads_of
from repro.core.rst import RegisterSharingTable
from repro.core.splitter import split_itid


def test_fully_shared_stays_merged():
    rst = RegisterSharingTable.for_multi_execution()
    decision = split_itid(0b1111, (1, 2), rst)
    assert decision.itids == [0b1111]
    assert decision.split_count == 0


def test_singleton_passes_through():
    rst = RegisterSharingTable()
    decision = split_itid(0b0100, (1,), rst)
    assert decision.itids == [0b0100]


def test_allow_merge_false_always_splits():
    """MMT-F: shared fetch only — the splitter emits singletons."""
    rst = RegisterSharingTable.for_multi_execution()
    decision = split_itid(0b1011, (1,), rst, allow_merge=False)
    assert sorted(decision.itids) == [0b0001, 0b0010, 0b1000]
    assert decision.split_count == 2


def test_no_sources_stays_merged():
    rst = RegisterSharingTable()  # nothing shared
    decision = split_itid(0b1111, (), rst)
    assert decision.itids == [0b1111]


def test_one_unshared_thread_is_peeled_off():
    rst = RegisterSharingTable.for_multi_execution()
    for other in (1, 2, 3):
        rst.set_pair(5, 0, other, False)
    decision = split_itid(0b1111, (5,), rst)
    assert decision.itids == [0b1110, 0b0001]
    assert decision.split_count == 1


def test_two_pairs_split():
    rst = RegisterSharingTable()
    rst.set_pair(5, 0, 1, True)
    rst.set_pair(5, 2, 3, True)
    decision = split_itid(0b1111, (5,), rst)
    assert sorted(decision.itids) == [0b0011, 0b1100]


def test_full_split_when_nothing_shared():
    rst = RegisterSharingTable()
    decision = split_itid(0b1111, (5,), rst)
    assert sorted(decision.itids) == [0b0001, 0b0010, 0b0100, 0b1000]
    assert decision.split_count == 3


def test_table2_split_logic():
    """Paper Table 2: an execute-identical ALU op stays merged and a
    fetch-identical one splits at decode; at the LSQ a multi-execution
    store splits into one access per context, a multi-threaded store
    makes one."""
    from repro.core.config import WorkloadType
    from repro.core.sync import FetchMode
    from repro.func.executor import Executed
    from repro.isa.instruction import Instruction
    from repro.isa.opcodes import Opcode
    from repro.pipeline.dyninst import DynInst
    from repro.pipeline.lsq import LoadStoreQueue

    rst = RegisterSharingTable.for_multi_execution()
    assert split_itid(0b11, (1,), rst).itids == [0b11]
    rst.set_pair(1, 0, 1, False)
    assert len(split_itid(0b11, (1,), rst).itids) == 2

    store = Instruction(Opcode.SW, rs1=9, rs2=1, imm=0)
    execs = {
        t: Executed(0, store, (0, 0), None, 0x100, 1, None, 1, t)
        for t in (0, 1)
    }
    di = DynInst(1, 0, store, 0b11, execs, FetchMode.MERGE)
    needed = LoadStoreQueue.store_accesses_needed
    assert needed(di, WorkloadType.MULTI_EXECUTION) == 2
    assert needed(di, WorkloadType.MULTI_THREADED) == 1


def test_chooser_prefers_largest_group():
    rst = RegisterSharingTable()
    for t, u in ((0, 1), (0, 2), (1, 2)):
        rst.set_pair(5, t, u, True)
    decision = split_itid(0b1111, (5,), rst)
    assert decision.itids[0] == 0b0111
    assert sorted(decision.itids) == [0b0111, 0b1000]


def test_multiple_sources_intersect_sharing():
    rst = RegisterSharingTable()
    rst.set_pair(1, 0, 1, True)
    rst.set_pair(1, 2, 3, True)
    rst.set_pair(2, 0, 1, True)  # reg 2 not shared between 2 and 3
    decision = split_itid(0b1111, (1, 2), rst)
    assert sorted(decision.itids) == [0b0011, 0b0100, 0b1000]


@given(
    itid=st.integers(min_value=1, max_value=15),
    bits=st.integers(min_value=0, max_value=63),
    srcs=st.lists(st.integers(min_value=0, max_value=7), max_size=2).map(tuple),
)
def test_split_is_a_partition(itid, bits, srcs):
    """The resulting ITIDs always partition the input ITID exactly."""
    rst = RegisterSharingTable()
    for reg in range(8):
        rst._bits[reg] = bits
    decision = split_itid(itid, srcs, rst)
    union = 0
    total = 0
    for eid in decision.itids:
        assert eid & ~itid == 0
        assert eid & union == 0  # disjoint
        union |= eid
        total += popcount(eid)
    assert union == itid
    assert total == popcount(itid)


@given(
    itid=st.integers(min_value=1, max_value=15),
    shared_pairs=st.sets(st.sampled_from(range(6)), max_size=6),
)
def test_merged_groups_are_actually_shared(itid, shared_pairs):
    """Every multi-thread output group's pairs must all be RST-shared."""
    from repro.core.itid import PAIRS

    rst = RegisterSharingTable()
    for index in shared_pairs:
        t, u = PAIRS[index]
        rst.set_pair(3, t, u, True)
    decision = split_itid(itid, (3,), rst)
    for eid in decision.itids:
        members = threads_of(eid)
        for i, t in enumerate(members):
            for u in members[i + 1:]:
                assert rst.pair_shared(3, t, u)
