"""Commit-time register merging (paper §4.2.7).

The RST tracks register *mappings*, so two threads that write the same
value to the same architected register on divergent paths look different to
it — without help, the whole register file drifts apart and no further
execute-identical instructions are found.  Register merging repairs this:
when an instruction fetched in DETECT or CATCHUP mode commits and its
architected-destination mapping is still valid (no younger in-flight writer
— checked against a shadow copy of the mapping table), the committed value
is compared against the other threads' current values of the same
architected register, bounded by the register file read ports available
that cycle.  Matches set the corresponding RST pair bits back to 1.
"""

from __future__ import annotations

from repro.core.itid import MAX_THREADS, THREADS_OF
from repro.core.rst import RegisterSharingTable
from repro.isa.registers import NUM_ARCH_REGS


class RegisterMergeUnit:
    """Tracks per-thread writer activity and performs commit-time merges."""

    def __init__(self, num_threads: int, read_ports: int = 2) -> None:
        self.num_threads = num_threads
        self.read_ports = read_ports
        # no_active_writer[t][r]: 1 iff no in-flight instruction of thread t
        # writes architected register r (the paper's per-thread bit vector).
        self.no_active_writer = [
            [True] * NUM_ARCH_REGS for _ in range(num_threads)
        ]
        self._ports_left = read_ports
        self.attempts = 0
        self.merges = 0
        self.port_starved = 0

    def new_cycle(self) -> None:
        """Refresh the read-port budget at the start of each cycle."""
        self._ports_left = self.read_ports

    # ------------------------------------------------------- writer tracking
    def on_writer_allocated(self, itid: int, arch_reg: int) -> None:
        """An instruction with *itid* was renamed with destination *arch_reg*."""
        for t in THREADS_OF[itid]:
            self.no_active_writer[t][arch_reg] = False

    def on_writer_retired(
        self, tid: int, arch_reg: int, mapping_valid: bool
    ) -> None:
        """A writer committed; restore the bit only if it was the last writer."""
        if mapping_valid:
            self.no_active_writer[tid][arch_reg] = True

    # --------------------------------------------------------------- merging
    def try_merge(
        self,
        itid: int,
        arch_reg: int,
        value,
        rst: RegisterSharingTable,
        read_other_value,
        active_mask: int,
    ) -> int:
        """Attempt value merges for a committing DETECT/CATCHUP instruction.

        *read_other_value(tid)* returns thread *tid*'s current architectural
        value of *arch_reg* (through the shadow mapping into the physical
        register file).  Returns the number of pair bits newly set.
        """
        merged = 0
        own_threads = THREADS_OF[itid]
        for u in range(MAX_THREADS):
            if itid >> u & 1 or not active_mask >> u & 1:
                continue
            if not self.no_active_writer[u][arch_reg]:
                continue
            already = all(rst.pair_shared(arch_reg, t, u) for t in own_threads)
            if already:
                continue
            if self._ports_left <= 0:
                self.port_starved += 1
                break
            self._ports_left -= 1
            self.attempts += 1
            other_value = read_other_value(u)
            if other_value is not None and values_equal(other_value, value):
                for t in own_threads:
                    rst.set_pair(arch_reg, t, u, True, via_merge=True)
                merged += 1
                self.merges += 1
        return merged


def values_equal(a, b) -> bool:
    """Bit-identity comparison as register-file hardware would perform it.

    Ints and floats compare as equal only within their own kind: hardware
    compares raw register bits, and our int/float values model disjoint
    encodings.  NaN never matches (NaN bits would, but Python NaN != NaN and
    our workloads never produce NaN; being conservative is always safe).
    """
    if isinstance(a, float) != isinstance(b, float):
        return False
    return a == b
