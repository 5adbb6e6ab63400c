"""Register Sharing Table semantics (paper §4.2.1, §4.2.3)."""

from repro.core.itid import MAX_THREADS, PAIRS
from repro.core.rst import PAIRS_TOUCHING, PAIRS_WITHIN, RegisterSharingTable
from repro.isa.registers import SP


def test_multi_execution_starts_fully_shared():
    rst = RegisterSharingTable.for_multi_execution()
    assert rst.pair_shared(0, 0, 1)
    assert rst.pair_shared(SP, 2, 3)


def test_multi_threaded_excludes_stack_pointer():
    rst = RegisterSharingTable.for_multi_threaded()
    assert rst.pair_shared(1, 0, 1)
    assert not rst.pair_shared(SP, 0, 1)


def test_set_pair():
    rst = RegisterSharingTable()
    rst.set_pair(5, 0, 2, True)
    assert rst.pair_shared(5, 0, 2)
    assert rst.pair_shared(5, 2, 0)
    assert not rst.pair_shared(5, 0, 1)
    rst.set_pair(5, 0, 2, False)
    assert not rst.pair_shared(5, 0, 2)


def test_eid_shared_requires_all_pairs_all_sources():
    rst = RegisterSharingTable.for_multi_execution()
    assert rst.eid_shared(0b0111, (1, 2))
    rst.set_pair(2, 1, 2, False)
    assert not rst.eid_shared(0b0111, (1, 2))
    assert rst.eid_shared(0b0011, (1, 2))  # pair (0,1) untouched
    assert rst.eid_shared(0b0111, (1,))  # reg 2 not a source here


def test_eid_shared_no_sources_is_trivially_true():
    rst = RegisterSharingTable()
    assert rst.eid_shared(0b1111, ())


def test_update_dest_merged_sets_pairs():
    rst = RegisterSharingTable()
    rst.update_dest(3, 0b0011, [0b0011])
    assert rst.pair_shared(3, 0, 1)


def test_update_dest_split_clears_pairs():
    rst = RegisterSharingTable.for_multi_execution()
    rst.update_dest(3, 0b0011, [0b0001, 0b0010])
    assert not rst.pair_shared(3, 0, 1)


def test_update_dest_singleton_write_clears_thread_pairs():
    """A private write makes the register unshared with everyone (§4.2.6)."""
    rst = RegisterSharingTable.for_multi_execution()
    rst.update_dest(7, 0b0001, [0b0001])
    assert not rst.pair_shared(7, 0, 1)
    assert not rst.pair_shared(7, 0, 2)
    assert not rst.pair_shared(7, 0, 3)
    # Pairs not involving thread 0 are untouched.
    assert rst.pair_shared(7, 1, 2)


def test_update_dest_partial_split():
    rst = RegisterSharingTable()
    rst.update_dest(4, 0b1111, [0b0110, 0b0001, 0b1000])
    assert rst.pair_shared(4, 1, 2)
    assert not rst.pair_shared(4, 0, 1)
    assert not rst.pair_shared(4, 0, 3)
    assert not rst.pair_shared(4, 2, 3)


def test_update_dest_leaves_other_registers_alone():
    rst = RegisterSharingTable.for_multi_execution()
    rst.update_dest(3, 0b0011, [0b0001, 0b0010])
    assert rst.pair_shared(4, 0, 1)


def test_taint_tracks_regmerge_provenance():
    rst = RegisterSharingTable()
    rst.set_pair(3, 0, 1, True, via_merge=True)
    assert rst.taint_mask((3,)) != 0
    assert rst.eid_uses_merge(0b0011, (3,))
    assert not rst.eid_uses_merge(0b1100, (3,))


def test_taint_cleared_on_unshare():
    rst = RegisterSharingTable()
    rst.set_pair(3, 0, 1, True, via_merge=True)
    rst.set_pair(3, 0, 1, False)
    assert rst.taint_mask((3,)) == 0


def test_taint_propagates_through_update_dest():
    rst = RegisterSharingTable()
    rst.set_pair(2, 0, 1, True, via_merge=True)
    src_taint = rst.taint_mask((2,))
    rst.update_dest(5, 0b0011, [0b0011], src_taint_mask=src_taint)
    assert rst.eid_uses_merge(0b0011, (5,))


def test_plain_set_pair_clears_taint():
    rst = RegisterSharingTable()
    rst.set_pair(3, 0, 1, True, via_merge=True)
    rst.set_pair(3, 0, 1, True, via_merge=False)
    assert rst.taint_mask((3,)) == 0


def test_shared_set():
    rst = RegisterSharingTable()
    rst.set_pair(1, 0, 2, True)
    assert rst.shared_set(1, 0, 0b1111) == 0b0101
    assert rst.shared_set(1, 0, 0b0011) == 0b0001  # thread 2 inactive


def test_pair_mask_tables():
    for mask in range(1 << MAX_THREADS):
        within = touching = 0
        for index, (t, u) in enumerate(PAIRS):
            owns_t, owns_u = mask >> t & 1, mask >> u & 1
            if owns_t and owns_u:
                within |= 1 << index
            if owns_t or owns_u:
                touching |= 1 << index
        assert PAIRS_WITHIN[mask] == within
        assert PAIRS_TOUCHING[mask] == touching
