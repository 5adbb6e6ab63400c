"""ITID bit-vector helpers."""

import pytest

from repro.core.itid import (
    CANDIDATE_EIDS,
    FIRST_THREAD,
    MAX_THREADS,
    PAIRS,
    PAIRS_IN_MASK,
    first_thread,
    itid_str,
    pair_bit,
    popcount,
    single,
    threads_of,
)


def test_pairs_cover_all_combinations():
    assert len(PAIRS) == 6  # C(4,2)
    assert len({pair_bit(t, u) for t, u in PAIRS}) == 6


def test_pair_bit_symmetric():
    for t, u in PAIRS:
        assert pair_bit(t, u) == pair_bit(u, t)


def test_popcount_and_threads():
    assert popcount(0b1011) == 3
    assert threads_of(0b1011) == (0, 1, 3)
    assert threads_of(0) == ()


def test_single_and_first():
    assert single(2) == 0b0100
    assert first_thread(0b1100) == 2
    with pytest.raises(ValueError):
        first_thread(0)


def test_first_thread_table_matches_helper():
    for mask in range(1, 1 << MAX_THREADS):
        assert FIRST_THREAD[mask] == first_thread(mask)


def test_first_thread_table_has_no_empty_mask():
    """An empty ITID must fail loudly, never index thread -1 or 0."""
    with pytest.raises(KeyError):
        FIRST_THREAD[0]


def test_candidate_eids_largest_first():
    candidates = CANDIDATE_EIDS[0b1111]
    assert candidates[0] == 0b1111
    sizes = [popcount(c) for c in candidates]
    assert sizes == sorted(sizes, reverse=True)
    assert all(popcount(c) >= 2 for c in candidates)
    assert len(candidates) == 11  # C(4,2)+C(4,3)+C(4,4)


def test_candidate_eids_are_subsets():
    for mask in range(1 << MAX_THREADS):
        for eid in CANDIDATE_EIDS[mask]:
            assert eid & ~mask == 0


def test_pairs_in_mask():
    assert PAIRS_IN_MASK[0b0011] == (pair_bit(0, 1),)
    assert len(PAIRS_IN_MASK[0b1111]) == 6
    assert PAIRS_IN_MASK[0b0001] == ()


def test_itid_str():
    assert itid_str(0b0001) == "1000"  # thread 0 leftmost, paper style
    assert itid_str(0b1111) == "1111"
    assert itid_str(0b0110) == "0110"
