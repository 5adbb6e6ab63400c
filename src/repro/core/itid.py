"""Instruction Thread ID (ITID) bit-vector helpers.

The ITID is the 4-bit pattern attached to every instruction-window entry
identifying which hardware threads share the instruction (paper §4.1).  We
represent it as a plain int bitmask; thread *t* owns the instruction iff bit
``1 << t`` is set.

For a 4-thread MMT there are 6 unordered thread pairs; the Register Sharing
Table stores one bit per pair per architected register, so the canonical
pair ordering lives here too.
"""

from __future__ import annotations

from itertools import combinations

#: Maximum hardware threads, as in the paper.
MAX_THREADS = 4

#: Canonical ordering of the 6 sharing pairs for 4 threads.
PAIRS: tuple[tuple[int, int], ...] = tuple(combinations(range(MAX_THREADS), 2))

#: (t, u) -> index into the 6-bit RST entry; symmetric.
PAIR_INDEX: dict[tuple[int, int], int] = {}
for _i, (_t, _u) in enumerate(PAIRS):
    PAIR_INDEX[(_t, _u)] = _i
    PAIR_INDEX[(_u, _t)] = _i

#: Precomputed pair indices inside every thread-set mask (size >= 2).
PAIRS_IN_MASK: dict[int, tuple[int, ...]] = {}
for _mask in range(1 << MAX_THREADS):
    _members = [t for t in range(MAX_THREADS) if _mask >> t & 1]
    PAIRS_IN_MASK[_mask] = tuple(
        PAIR_INDEX[pair] for pair in combinations(_members, 2)
    )

#: Thread count of every mask.
POPCOUNT: tuple[int, ...] = tuple(
    bin(m).count("1") for m in range(1 << MAX_THREADS)
)

#: Member threads of every mask, ascending.
THREADS_OF: tuple[tuple[int, ...], ...] = tuple(
    tuple(t for t in range(MAX_THREADS) if m >> t & 1)
    for m in range(1 << MAX_THREADS)
)

#: Lowest member thread of every non-empty mask.  Mask 0 has no entry, so
#: looking it up raises ``KeyError`` instead of yielding a usable index.
FIRST_THREAD: dict[int, int] = {
    m: (m & -m).bit_length() - 1 for m in range(1, 1 << MAX_THREADS)
}

#: Subsets of each mask with at least two members, largest first.  These are
#: the candidate EIDs the splitter's filter/chooser considers.
CANDIDATE_EIDS: dict[int, tuple[int, ...]] = {}
for _mask in range(1 << MAX_THREADS):
    subsets = []
    sub = _mask
    while sub:
        if POPCOUNT[sub] >= 2:
            subsets.append(sub)
        sub = (sub - 1) & _mask
    subsets.sort(key=lambda s: (-POPCOUNT[s], s))
    CANDIDATE_EIDS[_mask] = tuple(subsets)


def popcount(mask: int) -> int:
    """Number of threads in *mask*."""
    return POPCOUNT[mask]


def threads_of(mask: int) -> tuple[int, ...]:
    """Thread ids present in *mask*, ascending (a precomputed tuple)."""
    return THREADS_OF[mask]


def single(tid: int) -> int:
    """ITID mask owning only thread *tid*."""
    return 1 << tid


def first_thread(mask: int) -> int:
    """Lowest thread id in *mask*."""
    if not mask:
        raise ValueError("empty ITID")
    return (mask & -mask).bit_length() - 1


def pair_bit(t: int, u: int) -> int:
    """RST bit index for the unordered pair (*t*, *u*)."""
    return PAIR_INDEX[(t, u)]


def itid_str(mask: int) -> str:
    """Render *mask* in the paper's bit-pattern style, thread 0 leftmost."""
    return "".join("1" if mask >> t & 1 else "0" for t in range(MAX_THREADS))
