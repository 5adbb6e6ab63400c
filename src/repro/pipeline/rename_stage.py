"""Split + rename + dispatch.

The split stage (paper §4.2.2) sits between decode and the RAT: each
fetch-identical instruction is partitioned by the Register Sharing Table
into the minimal set of execute-identical pieces (Table 2's decode rows,
including the LVIP consultation for multi-execution loads and the forced
split of TID, whose result is thread-specific by definition).

Rename then reads the leader thread's mappings once per piece, allocates a
single physical destination recorded in *every* owning thread's RAT
(§4.2.4), logs per-thread previous mappings for undo, and dispatches into
the ROB, issue queue, and (for memory ops) the LSQ.  An instruction group
only leaves the decode buffer when every piece finds resources — splitting
never half-dispatches.
"""

from __future__ import annotations

from repro.core.config import WorkloadType
from repro.core.itid import POPCOUNT, THREADS_OF
from repro.core.splitter import split_itid
from repro.isa.opcodes import Opcode
from repro.obs.events import EventKind
from repro.pipeline.dyninst import DynInst, InstState

_WAITING = InstState.WAITING


class RenameStageMixin:
    """Split/rename/dispatch logic for :class:`~repro.pipeline.smt.SMTCore`."""

    def rename_stage(self) -> None:
        """Split, rename, and dispatch decoded groups while resources
        last, consulting LVIP and allocating RST entries.

        Effects:
            writes: decode_buffer, iq, lsq, lvip, rat, regfile, regmerge,
                rob, rst, stalled_on_branch, stats, thread_queues
        """
        cfg = self.config
        width = cfg.issue_width
        decode_buffer = self.decode_buffer
        if not width or not decode_buffer:
            return
        rob = self.rob
        iq = self.iq
        lsq = self.lsq
        lsq_entries = lsq.entries
        regfile = self.regfile
        free = regfile._free
        map_refs = regfile._map_refs
        src_refs = regfile._src_refs
        reg_ready = regfile.ready
        reg_value = regfile.value
        rat_map = self.rat._map
        no_active_writer = self.regmerge.no_active_writer
        thread_queues = self.thread_queues
        shared_fetch = self.mmt.shared_fetch
        stats = self.stats
        inputs = outputs = splits = renamed = allocated = 0
        min_free = len(free)
        try:
            while width > 0 and decode_buffer:
                head = decode_buffer[0]
                if head.dead:
                    decode_buffer.pop(0)
                    continue
                inst = head.inst
                if not shared_fetch or POPCOUNT[head.itid] == 1:
                    pieces = [head]
                    taint_mask = 0
                else:
                    pieces, taint_mask = self._split(head)
                npieces = len(pieces)
                if npieces > width:
                    break
                # The resource check, inlined: every piece must fit.
                dst = inst.dst
                if len(rob) + npieces > cfg.rob_size:
                    stats.rename_stalls_rob += 1
                    reason = "rob"
                elif len(iq) + npieces > cfg.iq_size:
                    stats.rename_stalls_iq += 1
                    reason = "iq"
                elif inst.is_mem and len(lsq_entries) + npieces > cfg.lsq_size:
                    stats.rename_stalls_lsq += 1
                    reason = "lsq"
                elif dst is not None and len(free) < npieces:
                    stats.rename_stalls_regs += 1
                    reason = "regs"
                else:
                    reason = None
                if reason is not None:
                    if self.obs.tracing:
                        self.obs.emit(
                            EventKind.RENAME_STALL,
                            self.cycle,
                            pc=head.pc,
                            seq=head.seq,
                            reason=reason,
                            pieces=npieces,
                        )
                    break
                decode_buffer.pop(0)
                inputs += 1
                outputs += npieces
                if npieces > 1:
                    splits += 1
                    self._repoint_branch_waiters(head, pieces)
                srcs = inst.srcs
                is_mem = inst.is_mem
                for piece in pieces:
                    # Rename one piece: read the leader's mappings, claim
                    # the sources, allocate one destination mapped in
                    # every owner's RAT, and dispatch.
                    owners = THREADS_OF[piece.itid]
                    leader = owners[0]
                    lead_map = rat_map[leader]
                    psrcs = []
                    for reg in srcs:
                        preg = lead_map[reg]
                        if preg < 0:
                            raise RuntimeError(
                                f"thread {leader} arch r{reg} has no mapping"
                            )
                        psrcs.append(preg)
                    piece.psrcs = psrcs
                    for preg in psrcs:
                        src_refs[preg] += 1
                    if dst is not None:
                        # regfile.alloc(map_claims=len(owners)); the
                        # allocation count and high-water mark are
                        # settled once per stage call.
                        preg = free.pop()  # simlint: ignore — free list is a list
                        map_refs[preg] = len(owners)
                        src_refs[preg] = 0
                        reg_ready[preg] = False
                        reg_value[preg] = None
                        allocated += 1
                        if len(free) < min_free:
                            min_free = len(free)
                        piece.pdst = preg
                        prev_map = piece.prev_map
                        for tid in owners:
                            prev_map[tid] = rat_map[tid][dst]
                            rat_map[tid][dst] = preg
                            no_active_writer[tid][dst] = False
                    piece.state = _WAITING
                    piece.is_exec_merged = len(owners) >= 2
                    rob.append(piece)
                    for tid in owners:
                        thread_queues[tid].append(piece)
                    iq.append(piece)
                    if is_mem:
                        lsq.allocate(piece)
                    renamed += 1
                if shared_fetch and dst is not None:
                    self.rst.update_dest(
                        dst,
                        head.itid if npieces == 1 else sum(p.itid for p in pieces),
                        [p.itid for p in pieces],
                        src_taint_mask=taint_mask,
                    )
                width -= npieces
        finally:
            stats.split_stage_inputs += inputs
            stats.split_stage_outputs += outputs
            stats.splits_performed += splits
            stats.renamed_entries += renamed
            if allocated:
                regfile.allocations += allocated
                in_use = regfile.num_regs - min_free
                if in_use > regfile.high_water:
                    regfile.high_water = in_use

    # ------------------------------------------------------------- splitting
    def _split(self, di: DynInst) -> tuple[list[DynInst], int]:
        """Partition *di*; returns (pieces, source-taint mask)."""
        if not self.mmt.shared_fetch or POPCOUNT[di.itid] == 1:
            return [di], 0
        inst = di.inst
        if inst.op in (Opcode.SEND, Opcode.TRECV):
            # Message operations have per-thread side effects on the shared
            # network: always one instruction per owning thread.
            itids = [1 << t for t in THREADS_OF[di.itid]]
            return self._materialize(di, itids), 0
        if inst.op is Opcode.TID:
            # Thread-id reads split by the *software* thread ids the OS
            # assigned: distinct ids (normal SPMD) split per thread, while
            # the Limit configuration's identical clones stay merged.
            groups: dict[int, int] = {}
            for t in THREADS_OF[di.itid]:
                soft = self.job.soft_tids[t]
                groups[soft] = groups.get(soft, 0) | (1 << t)
            itids = sorted(groups.values(), key=lambda m: (-POPCOUNT[m], m))
            return self._materialize(di, itids), 0

        decision = split_itid(
            di.itid, inst.srcs, self.rst, allow_merge=self.mmt.shared_execute
        )
        itids = decision.itids
        taint_mask = self.rst.taint_mask(inst.srcs) if self.mmt.shared_execute else 0

        if (
            inst.is_load
            and self.job.wtype is not WorkloadType.MULTI_THREADED
            and self.mmt.shared_execute
            and any(POPCOUNT[eid] >= 2 for eid in itids)
        ):
            # Table 2: ME execute-identical loads consult the LVIP.
            self.stats.lvip_checks += 1
            if self.lvip.predict_identical(di.pc):
                self.stats.lvip_predict_identical += 1
            else:
                itids = [1 << t for t in THREADS_OF[di.itid]]

        pieces = self._materialize(di, itids)
        if self.mmt.register_merging:
            for piece in pieces:
                if POPCOUNT[piece.itid] >= 2 and self.rst.eid_uses_merge(
                    piece.itid, inst.srcs
                ):
                    piece.merged_via_regmerge = True
        if inst.is_load and self.job.wtype is not WorkloadType.MULTI_THREADED:
            for piece in pieces:
                if POPCOUNT[piece.itid] >= 2:
                    piece.lvip_predicted_identical = True
        return pieces, taint_mask

    @staticmethod
    def _materialize(di: DynInst, itids: list[int]) -> list[DynInst]:
        if len(itids) == 1:
            return [di]
        return [di.clone_for(eid) for eid in itids]

    def _repoint_branch_waiters(self, head: DynInst, pieces: list[DynInst]) -> None:
        """Threads stalled on a fetched control instruction must wait on the
        piece that owns them once it splits."""
        for tid in range(self.num_threads):
            if self.stalled_on_branch[tid] is head:
                for piece in pieces:
                    if piece.itid >> tid & 1:
                        self.stalled_on_branch[tid] = piece
                        break
