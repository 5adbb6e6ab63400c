"""Register Sharing Table (paper §4.2.1, §4.2.3).

One entry per architected register; each entry holds one bit per potential
sharing pair (6 bits for 4 threads).  Bit = 1 means the two threads' values
for that architected register are known identical — either because their
RATs map it to the same physical register, or because commit-time register
merging (§4.2.7) proved the values equal.

The table is conservative: a 0 never causes incorrect execution, only a
missed merging opportunity; a 1 must always be true, which the pipeline's
oracle self-check enforces.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.itid import MAX_THREADS, PAIRS, PAIRS_IN_MASK, pair_bit
from repro.isa.registers import NUM_ARCH_REGS, SP

_ALL_PAIRS_MASK = (1 << len(PAIRS)) - 1

#: Pair-bitmask of the pairs fully inside each thread mask: the pairs a
#: merged instruction with that ITID (or EID) shares.
PAIRS_WITHIN: tuple[int, ...] = tuple(
    sum(1 << bit for bit in PAIRS_IN_MASK[mask])
    for mask in range(1 << MAX_THREADS)
)

#: Pair-bitmask of the pairs with at least one thread in each mask: the
#: entries an instruction with that ITID rewrites.
PAIRS_TOUCHING: tuple[int, ...] = tuple(
    sum(
        1 << index
        for index, (t, u) in enumerate(PAIRS)
        if mask >> t & 1 or mask >> u & 1
    )
    for mask in range(1 << MAX_THREADS)
)


class RegisterSharingTable:
    """Pairwise value-identity tracking for architected registers."""

    def __init__(self, num_regs: int = NUM_ARCH_REGS) -> None:
        self.num_regs = num_regs
        self._bits = [0] * num_regs
        # Provenance taint, parallel to the sharing bits: a set taint bit
        # means the pair's identity was established (directly or through
        # dataflow) by commit-time register merging.  Figure 5(b) reports
        # instructions that are execute-identical *only thanks to* register
        # merging; the taint is how we attribute them.
        self._taint = [0] * num_regs
        self.updates = 0

    # ------------------------------------------------------------- lifecycle
    def reset_all_shared(self, except_regs: Iterable[int] = ()) -> None:
        """Mark every register shared by every pair.

        Multi-execution workloads start with *all* architected registers
        identical; multi-threaded workloads start identical except the stack
        pointer (paper §4.2.6) — pass ``except_regs=(SP,)`` for those.
        """
        self._bits = [_ALL_PAIRS_MASK] * self.num_regs
        self._taint = [0] * self.num_regs
        for reg in except_regs:
            self._bits[reg] = 0

    @classmethod
    def for_multi_execution(cls) -> "RegisterSharingTable":
        table = cls()
        table.reset_all_shared()
        return table

    @classmethod
    def for_multi_threaded(cls) -> "RegisterSharingTable":
        table = cls()
        table.reset_all_shared(except_regs=(SP,))
        return table

    # --------------------------------------------------------------- queries
    def pair_shared(self, reg: int, t: int, u: int) -> bool:
        """Is *reg* known identical between threads *t* and *u*?"""
        return bool(self._bits[reg] >> pair_bit(t, u) & 1)

    def eid_shared(self, eid_mask: int, srcs: tuple[int, ...]) -> bool:
        """Are all of *srcs* identical across every pair inside *eid_mask*?

        This is the AND network of §4.2.2: per source register, the pair
        bits are read and ANDed for every pair combination in the candidate
        EID.
        """
        need = PAIRS_WITHIN[eid_mask]
        table = self._bits
        for reg in srcs:
            if table[reg] & need != need:
                return False
        return True

    # --------------------------------------------------------------- updates
    def set_pair(
        self, reg: int, t: int, u: int, shared: bool, via_merge: bool = False
    ) -> None:
        """Force the sharing bit for one pair.

        ``via_merge=True`` marks the identity as established by commit-time
        register merging (provenance for Figure 5(b)).
        """
        bit = 1 << pair_bit(t, u)
        if shared:
            self._bits[reg] |= bit
            if via_merge:
                self._taint[reg] |= bit
            else:
                self._taint[reg] &= ~bit
        else:
            self._bits[reg] &= ~bit
            self._taint[reg] &= ~bit
        self.updates += 1

    def update_dest(
        self,
        reg: int,
        itid: int,
        result_itids: Iterable[int],
        src_taint_mask: int = 0,
    ) -> None:
        """Update *reg*'s entry after an instruction with *itid* was split
        into *result_itids* (paper §4.2.3).

        For every pair with at least one thread in *itid*: the bit becomes 1
        iff some resulting ITID contains both threads, 0 otherwise.  Pairs
        untouched by the instruction keep their previous value.
        *src_taint_mask* carries regmerge provenance from the sources into
        the destination's pairs.
        """
        shared_mask = 0
        for res in result_itids:
            shared_mask |= PAIRS_WITHIN[res]
        touched = PAIRS_TOUCHING[itid]
        self._bits[reg] = (self._bits[reg] & ~touched) | (shared_mask & touched)
        self._taint[reg] = (self._taint[reg] & ~touched) | (
            shared_mask & touched & src_taint_mask
        )
        self.updates += 1

    def taint_mask(self, srcs: tuple[int, ...]) -> int:
        """OR of the regmerge-provenance taint bits across *srcs*."""
        mask = 0
        for reg in srcs:
            mask |= self._taint[reg]
        return mask

    def eid_uses_merge(self, eid_mask: int, srcs: tuple[int, ...]) -> bool:
        """Does keeping *eid_mask* merged rely on any regmerge-tainted pair?"""
        return bool(self.taint_mask(srcs) & PAIRS_WITHIN[eid_mask])

    def sharing_fraction(self, num_threads: int) -> float:
        """Fraction of pair bits set among the first *num_threads* threads,
        across all registers — the interval-metrics 'RST sharing rate'."""
        if num_threads < 2:
            return 0.0
        pair_mask = 0
        for index, (t, u) in enumerate(PAIRS):
            if t < num_threads and u < num_threads:
                pair_mask |= 1 << index
        total_pairs = bin(pair_mask).count("1") * self.num_regs
        set_bits = sum(bin(bits & pair_mask).count("1") for bits in self._bits)
        return set_bits / total_pairs

    # ----------------------------------------------------------------- debug
    def entry(self, reg: int) -> int:
        """Raw 6-bit entry for *reg* (tests and debugging)."""
        return self._bits[reg]

    def shared_set(self, reg: int, tid: int, active_mask: int) -> int:
        """Mask of active threads whose *reg* is identical to *tid*'s."""
        result = 1 << tid
        for u in range(MAX_THREADS):
            if u != tid and active_mask >> u & 1 and self.pair_shared(reg, tid, u):
                result |= 1 << u
        return result
