"""Commit: per-thread in-order retirement with register merging.

A merged instruction commits once, when it reaches the head of *every*
owning thread's retirement order, and retires for all of them together —
that single commit is MMT's back-end saving.  Committing stores perform
their cache accesses here (one per owning address space for
multi-execution, Table 2); commit-time register merging (§4.2.7) runs for
instructions fetched in DETECT or CATCHUP mode whose destination mapping
is still valid.
"""

from __future__ import annotations

from repro.core.itid import THREADS_OF
from repro.core.sync import FetchMode
from repro.obs.events import EventKind
from repro.pipeline.dyninst import DynInst, InstState

_MERGEABLE_MODES = (FetchMode.DETECT, FetchMode.CATCHUP)
_DONE = InstState.DONE
_COMMITTED = InstState.COMMITTED


class CommitStageMixin:
    """Commit logic for :class:`~repro.pipeline.smt.SMTCore`."""

    def commit_stage(self) -> None:
        """Retire DONE instructions in program order, round-robin across
        threads, up to ``commit_width`` per cycle.

        Effects:
            writes: _commit_rr, finished, icount, ldst_ports_left, lsq,
                regfile, regmerge, rob, stats, thread_queues
        """
        cfg = self.config
        budget = cfg.commit_width
        nthreads = self.num_threads
        thread_queues = self.thread_queues
        progress = True
        while budget > 0 and progress:
            progress = False
            for offset in range(nthreads):
                if budget <= 0:
                    break
                tid = (self._commit_rr + offset) % nthreads
                queue = thread_queues[tid]
                if not queue:
                    continue
                di = queue[0]
                if di.state is not _DONE:
                    continue
                at_every_head = True
                for u in THREADS_OF[di.itid]:
                    if thread_queues[u][0] is not di:
                        at_every_head = False
                        break
                if not at_every_head:
                    continue  # not yet at the head of every owner's order
                if di.inst.is_store and not self.lsq.try_commit_store(di, self):
                    continue
                self._commit(di)
                budget -= 1
                progress = True
        self._commit_rr = (self._commit_rr + 1) % nthreads

    def _commit(self, di: DynInst) -> None:
        """Retire *di* for every owning thread at once."""
        inst = di.inst
        owners = THREADS_OF[di.itid]
        k = len(owners)
        stats = self.stats
        stats.committed_thread_insts += k
        stats.committed_entries += 1
        per_thread = stats.committed_per_thread
        for tid in owners:
            per_thread[tid] = per_thread.get(tid, 0) + 1
        if k >= 2:
            stats.committed_exec_identical += k
            if di.merged_via_regmerge:
                stats.committed_exec_identical_regmerge += k
        elif di.fetch_merged_width >= 2:
            stats.committed_fetch_identical += 1

        thread_queues = self.thread_queues
        icount = self.icount
        for tid in owners:
            thread_queues[tid].popleft()
            icount[tid] -= 1

        regfile = self.regfile
        map_refs = regfile._map_refs
        src_refs = regfile._src_refs
        free = regfile._free
        dst = inst.dst
        if dst is not None:
            # Retire the destination for every owner: drop the previous
            # mapping's claim, and restore the owner's no-active-writer bit
            # when the committed mapping is still the current one.
            rat_map = self.rat._map
            no_active_writer = self.regmerge.no_active_writer
            prev_map = di.prev_map
            pdst = di.pdst
            pdst_by_tid = di.pdst_by_tid
            valid_mask = 0
            for tid in owners:
                prev = prev_map[tid]
                map_refs[prev] = refs = map_refs[prev] - 1
                if refs < 0:
                    raise RuntimeError(f"negative map refcount on p{prev}")
                if refs == 0 and src_refs[prev] == 0:
                    free.append(prev)
                current = (
                    pdst if pdst_by_tid is None else pdst_by_tid.get(tid, pdst)
                )
                if rat_map[tid][dst] == current:
                    no_active_writer[tid][dst] = True
                    valid_mask |= 1 << tid
            if (
                self.mmt.register_merging
                and valid_mask
                and di.fetch_mode in _MERGEABLE_MODES
                and pdst_by_tid is None
            ):
                self._commit_regmerge(di, owners, valid_mask, dst)
        for preg in di.psrcs:
            src_refs[preg] = refs = src_refs[preg] - 1
            if refs < 0:
                raise RuntimeError(f"negative source refcount on p{preg}")
            if refs == 0 and map_refs[preg] == 0:
                free.append(preg)
        if inst.is_mem:
            self.lsq.entries.remove(di)
        self.rob.remove(di)
        di.state = _COMMITTED
        if self.obs.tracing:
            self.obs.emit(
                EventKind.COMMIT,
                self.cycle,
                tid=owners[0],
                pc=di.pc,
                seq=di.seq,
                itid=di.itid,
                threads=k,
            )

        if di.halt:
            for tid in owners:
                if not self.finished[tid]:
                    self.finished[tid] = True
                    stats.halted_threads += 1

    def _commit_regmerge(
        self, di: DynInst, owners: tuple[int, ...], valid_mask: int, dst: int
    ) -> None:
        """Commit-time register merging (§4.2.7) for a DETECT/CATCHUP
        instruction whose destination mapping is valid for *valid_mask*."""
        active_mask = 0
        for tid in range(self.num_threads):
            if not self.finished[tid]:
                active_mask |= 1 << tid
        value = di.execs[owners[0]].result
        regfile = self.regfile
        rat = self.rat
        stats = self.stats

        def read_other(u: int):
            preg = rat.get(u, dst)
            if not regfile.ready[preg]:
                return None
            stats.regfile_reads += 1
            return regfile.value[preg]

        before = self.regmerge.attempts
        merged = self.regmerge.try_merge(
            valid_mask, dst, value, self.rst, read_other, active_mask
        )
        stats.register_merge_attempts += self.regmerge.attempts - before
        stats.register_merge_successes += merged
