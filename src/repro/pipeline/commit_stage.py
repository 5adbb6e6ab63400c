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

from repro.core.itid import threads_of
from repro.core.sync import FetchMode
from repro.obs.events import EventKind
from repro.pipeline.dyninst import DynInst, InstState

_MERGEABLE_MODES = (FetchMode.DETECT, FetchMode.CATCHUP)


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
        progress = True
        while budget > 0 and progress:
            progress = False
            for offset in range(self.num_threads):
                if budget <= 0:
                    break
                tid = (self._commit_rr + offset) % self.num_threads
                queue = self.thread_queues[tid]
                if not queue:
                    continue
                di = queue[0]
                if di.state is not InstState.DONE:
                    continue
                at_every_head = True
                for u in threads_of(di.itid):
                    if self.thread_queues[u][0] is not di:
                        at_every_head = False
                        break
                if not at_every_head:
                    continue  # not yet at the head of every owner's order
                if di.inst.is_store and not self.lsq.try_commit_store(di, self):
                    continue
                self._commit(di)
                budget -= 1
                progress = True
        self._commit_rr = (self._commit_rr + 1) % self.num_threads

    def _commit(self, di: DynInst) -> None:
        inst = di.inst
        owners = threads_of(di.itid)
        k = len(owners)
        stats = self.stats
        stats.committed_thread_insts += k
        stats.committed_entries += 1
        for tid in owners:
            stats.committed_per_thread[tid] = (
                stats.committed_per_thread.get(tid, 0) + 1
            )
        if k >= 2:
            stats.committed_exec_identical += k
            if di.merged_via_regmerge:
                stats.committed_exec_identical_regmerge += k
        elif di.fetch_merged_width >= 2:
            stats.committed_fetch_identical += 1

        for tid in owners:
            self.thread_queues[tid].popleft()
            self.icount[tid] -= 1

        if inst.dst is not None:
            self._retire_destination(di, owners)
        for preg in di.psrcs:
            self.regfile.drop_src_claim(preg)
        if inst.is_mem:
            self.lsq.remove(di)
        self.rob.remove(di)
        di.state = InstState.COMMITTED
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

    def _retire_destination(self, di: DynInst, owners: tuple[int, ...]) -> None:
        dst = di.inst.dst
        valid_mask = 0
        for tid in owners:
            prev = di.prev_map[tid]
            self.regfile.drop_map_claim(prev)
            valid = self.rat.mapping_valid(tid, dst, di.dest_phys_for(tid))
            self.regmerge.on_writer_retired(tid, dst, valid)
            if valid:
                valid_mask |= 1 << tid

        if (
            self.mmt.register_merging
            and valid_mask
            and di.fetch_mode in _MERGEABLE_MODES
            and di.pdst_by_tid is None
        ):
            active_mask = 0
            for tid in range(self.num_threads):
                if not self.finished[tid]:
                    active_mask |= 1 << tid
            value = di.execs[owners[0]].result

            def read_other(u: int):
                preg = self.rat.get(u, dst)
                if not self.regfile.ready[preg]:
                    return None
                self.stats.regfile_reads += 1
                return self.regfile.value[preg]

            before = self.regmerge.attempts
            merged = self.regmerge.try_merge(
                valid_mask, dst, value, self.rst, read_other, active_mask
            )
            self.stats.register_merge_attempts += self.regmerge.attempts - before
            self.stats.register_merge_successes += merged
