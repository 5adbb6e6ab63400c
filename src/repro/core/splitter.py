"""Instruction splitting: the filter + chooser stage (paper §4.2.2).

This stage sits between decode and register renaming.  Given a
fetch-identical instruction with ITID *S*, it produces the minimal set of
1–4 instructions such that threads grouped in one resulting ITID have
identical values in every source register (per the Register Sharing Table).

Structure follows the paper exactly:

* the *sharing network* reads each source register's pair bits and ANDs the
  combinations to produce a sharing flag for every candidate EID (every
  subset of 2–4 threads);
* the *filter* keeps only EIDs that are subsets of the instruction's ITID;
* the *chooser* emits the valid EID with the most threads; the chosen
  threads are removed and the process repeats (at most 3 splits).

Because value-identity is transitive, the greedy chooser yields the
partition of the ITID into identical-value classes — the provably minimal
instruction set.
"""

from __future__ import annotations

from repro.core.itid import CANDIDATE_EIDS, POPCOUNT, THREADS_OF
from repro.core.rst import RegisterSharingTable


class SplitDecision:
    """Outcome of the split stage for one fetched instruction."""

    __slots__ = ("itids", "split_count")

    def __init__(self, itids: list[int]) -> None:
        #: Resulting ITIDs, largest first; their union is the input ITID.
        self.itids = itids
        #: Number of extra instructions created (0 = stayed merged/single).
        self.split_count = len(itids) - 1


def split_itid(
    itid: int,
    srcs: tuple[int, ...],
    rst: RegisterSharingTable,
    allow_merge: bool = True,
) -> SplitDecision:
    """Partition *itid* into execute-identical groups.

    ``allow_merge=False`` models the MMT-F configuration, where instructions
    are always split into one instruction per thread at this stage (shared
    fetch only, no shared execution).
    """
    if POPCOUNT[itid] <= 1:
        return SplitDecision([itid])
    if not allow_merge:
        return SplitDecision([1 << t for t in THREADS_OF[itid]])

    remaining = itid
    result: list[int] = []
    # At most 3 iterations pick a multi-thread EID (4 threads -> <=2 groups
    # of >=2, or one group plus singletons); the loop structure mirrors the
    # up-to-three split stages of the hardware.
    eid_shared = rst.eid_shared
    while POPCOUNT[remaining] >= 2:
        chosen = 0
        for eid in CANDIDATE_EIDS[remaining]:
            # The filter admits only subsets of the remaining ITID (the
            # iteration order already has the largest candidates first).
            if eid_shared(eid, srcs):
                chosen = eid
                break
        if not chosen:
            break
        result.append(chosen)
        remaining &= ~chosen
    for t in THREADS_OF[remaining]:
        result.append(1 << t)
    if len(result) > 1:
        result.sort(key=lambda m: (-POPCOUNT[m], m))
    return SplitDecision(result)
