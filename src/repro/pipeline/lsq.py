"""Load/Store Queue (paper §4.2.5, Table 2 LSQ rows).

Ordering/forwarding rules (per thread — each thread's accesses target its
own address space; multi-threaded contexts share one):

* a load may access memory only when every older store of the same thread
  has a known address (computed, i.e. past address generation);
* if the youngest such older store writes the load's word, the value is
  forwarded and no cache port is consumed;
* otherwise the load takes a load/store port and accesses the hierarchy,
  bounded by the MSHR file.

Splitting (Table 2): multi-threaded loads and stores stay merged — shared
memory, one access.  Multi-execution loads and stores are split into one
access per owning thread, performed *serially* (one per cycle); merged ME
loads additionally verify the LVIP prediction when the last access returns
(handled by the writeback stage).

Stores access the cache at commit (write-buffer semantics: commit proceeds
once the access is accepted; misses complete in the background).
"""

from __future__ import annotations

from repro.core.config import WorkloadType
from repro.core.itid import FIRST_THREAD, POPCOUNT, THREADS_OF
from repro.obs.events import EventKind
from repro.pipeline.dyninst import DynInst, InstState

_ADDR_UNKNOWN_STATES = (InstState.DECODED, InstState.WAITING, InstState.ISSUED)
_WAITING_MEM = InstState.WAITING_MEM


class LoadStoreQueue:
    """In-order queue of in-flight memory instructions."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.entries: list[DynInst] = []

    def has_space(self) -> bool:
        return len(self.entries) < self.size

    def allocate(self, di: DynInst) -> None:
        if not self.has_space():
            raise RuntimeError("LSQ overflow (rename must check has_space)")
        self.entries.append(di)

    def remove(self, di: DynInst) -> None:
        self.entries.remove(di)

    def __len__(self) -> int:
        return len(self.entries)

    # ---------------------------------------------------------------- loads
    def process_loads(self, core) -> None:
        """Start pending load accesses, oldest first, one unit per load per
        cycle (ME units serialize), bounded by ports and MSHRs.

        Effects:
            writes: ldst_ports_left, stats
        """
        entries = self.entries
        if not entries:
            return
        now = core.cycle
        ports_left = core.ldst_ports_left
        forwards = accesses = port_stalls = 0
        try:
            for di in entries:
                if di.state is not _WAITING_MEM or not di.inst.is_load:
                    continue
                mem_pending = di.mem_pending
                pending = [t for t, r in mem_pending.items() if r is None]
                if not pending:
                    # All units started; a squash may have dropped the unit
                    # we were waiting on before completion was scheduled.
                    if di.mem_done_count == 0 and mem_pending:
                        di.mem_done_count = 1
                        core.schedule_completion(di, max(mem_pending.values()))
                    continue
                tid = pending[0]
                addr = di.execs[tid].addr
                # The youngest older same-thread store to this word
                # forwards; an older one with an unknown address blocks.
                bit = 1 << tid
                conflict = None
                blocked = False
                for entry in entries:
                    if entry is di:
                        break
                    if not entry.inst.is_store or not entry.itid & bit:
                        continue
                    if entry.state in _ADDR_UNKNOWN_STATES:
                        blocked = True
                        break
                    if entry.execs[tid].addr == addr:
                        conflict = entry
                if blocked:
                    continue
                if conflict is not None:
                    # Store-to-load forwarding: value available next cycle.
                    mem_pending[tid] = now + 1
                    forwards += 1
                    if core.obs.tracing:
                        core.obs.emit(
                            EventKind.STORE_FORWARD,
                            now,
                            tid=tid,
                            pc=di.pc,
                            seq=di.seq,
                            addr=addr,
                            store_seq=conflict.seq,
                        )
                else:
                    if ports_left <= 0:
                        port_stalls += 1
                        break
                    ready = core.hierarchy.data_access(
                        core.asids[tid], addr, False, now
                    )
                    if ready is None:
                        continue  # MSHR full; another load may still hit
                    ports_left -= 1
                    accesses += 1
                    mem_pending[tid] = max(ready, now + 1)
                if None not in mem_pending.values():
                    di.mem_done_count = 1
                    core.schedule_completion(di, max(mem_pending.values()))
        finally:
            core.ldst_ports_left = ports_left
            stats = core.stats
            stats.store_forwards += forwards
            stats.load_accesses += accesses
            stats.ldst_port_stalls += port_stalls

    # --------------------------------------------------------------- stores
    @staticmethod
    def store_accesses_needed(di: DynInst, wtype: WorkloadType) -> int:
        """Cache accesses a committing store must perform (Table 2)."""
        if wtype is WorkloadType.MULTI_THREADED:
            return 1
        return POPCOUNT[di.itid]

    def try_commit_store(self, di: DynInst, core) -> bool:
        """Perform (at most one per cycle) of the store's commit accesses.

        Returns True once every required access has been accepted.
        """
        wtype = core.job.wtype
        needed = self.store_accesses_needed(di, wtype)
        if di.store_committed_count < needed:
            if core.ldst_ports_left <= 0:
                core.stats.ldst_port_stalls += 1
                return False
            tid = (
                FIRST_THREAD[di.itid]
                if wtype is WorkloadType.MULTI_THREADED
                else THREADS_OF[di.itid][di.store_committed_count]
            )
            rec = di.execs[tid]
            ready = core.hierarchy.data_access(
                core.asids[tid], rec.addr, True, core.cycle
            )
            if ready is None:
                return False  # MSHR full: retry next cycle
            core.ldst_ports_left -= 1
            core.stats.store_accesses += 1
            di.store_committed_count += 1
        return di.store_committed_count >= needed
