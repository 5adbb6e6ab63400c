"""Fetch stage: merged fetch, prediction, divergence, synchronization.

Per cycle the fetch unit:

1. merges thread groups whose next fetch PCs are equal (PC-equality is the
   paper's merge condition; the sync FSM exists to *cause* this equality);
2. orders fetchable groups by the sync controller's priority (CATCHUP
   'behind' first, then ICOUNT, CATCHUP 'ahead' last);
3. fetches up to ``fetch_width`` instructions from up to
   ``fetch_groups_per_cycle`` groups, crossing taken branches up to the
   trace-cache block limit.

Each fetched instruction steps every member thread's functional oracle (or
pops that thread's replay queue after a squash), so the machine always
fetches the correct path; a mispredicted control instruction stalls its
group until the instruction resolves, modelling the full fetch-to-resolve
bubble plus a redirect penalty, without simulating wrong-path instructions.
"""

from __future__ import annotations

from repro.core.itid import threads_of
from repro.core.sync import ThreadGroup
from repro.func.executor import Executed
from repro.isa.opcodes import Opcode
from repro.obs.events import EventKind
from repro.pipeline.dyninst import DynInst


class FetchStageMixin:
    """Fetch logic for :class:`~repro.pipeline.smt.SMTCore`."""

    # ------------------------------------------------------------- plumbing
    def _peek_pc(self, tid: int) -> int | None:
        """Next PC thread *tid* will fetch, or None when it has finished."""
        replay = self.replay[tid]
        if replay:
            return replay[0].pc
        if self.fetch_done[tid]:
            return None
        return self.oracles[tid].state.pc

    def _next_record(self, tid: int) -> Executed:
        replay = self.replay[tid]
        if replay:
            return replay.popleft()
        return self.oracles[tid].step()

    def _group_pc(self, group: ThreadGroup) -> int | None:
        """The group's common next fetch PC (None if any member finished)."""
        pc = None
        for tid in threads_of(group.mask):
            tid_pc = self._peek_pc(tid)
            if tid_pc is None:
                return None
            if pc is None:
                pc = tid_pc
            elif pc != tid_pc:
                raise RuntimeError(
                    f"group PC invariant violated: {group!r} at {pc} vs {tid_pc}"
                )
        return pc

    def _group_stalled(self, group: ThreadGroup) -> bool:
        if group.drain_pending:
            # Post-remerge drain (only worthwhile when register merging can
            # exploit it): hold fetch briefly while the members' in-flight
            # work commits, so the §4.2.7 comparisons see valid mappings.
            if (
                self.mmt.register_merging
                and self.cycle - group.created_cycle < self.mmt.remerge_drain
                and any(self.icount[tid] > 0 for tid in threads_of(group.mask))
            ):
                return True
            group.drain_pending = False
        for tid in threads_of(group.mask):
            if self.fetch_stall_until[tid] > self.cycle:
                return True
            if self.stalled_on_branch[tid] is not None:
                return True
        return False

    # ------------------------------------------------------------ main stage
    def fetch_stage(self) -> None:
        """Fetch groups in ICOUNT priority order, one session per group,
        driving prediction, hint parking, and the sync FSM.

        Effects:
            writes: _hint_parked, _seq, bpred, btb, decode_buffer,
                fetch_done, fetch_stall_until, icount, ras,
                stalled_on_branch, stats, sync
        """
        cfg = self.config
        if self.mmt.shared_fetch:
            self._try_remerge()
        budget = cfg.fetch_width
        icounts = {
            g.gid: sum(self.icount[t] for t in threads_of(g.mask)) / g.size
            for g in self.sync.active_groups()
        }
        sessions = 0
        # When a group's session ends exactly at another group's PC (an
        # imminent remerge), that other group is held for the rest of this
        # cycle so the PCs are still equal when the merge check runs.
        held: set[int] = set()
        fetched_gids: set[int] = set()
        for group in self.sync.fetch_order(icounts):
            if budget <= 0 or sessions >= cfg.fetch_groups_per_cycle:
                break
            if group.gid in held:
                continue
            # A CATCHUP 'ahead' group yields whenever its chaser made
            # progress this cycle: feeding it leftover bandwidth would let
            # it lap the (cyclic) PC space and remerge a whole iteration
            # out of alignment.
            behinds = self.sync.behinds_of(group.gid)
            if behinds and any(gid in fetched_gids for gid in behinds):
                continue
            if self._group_stalled(group):
                continue
            pc = self._group_pc(group)
            if pc is None:
                continue
            fetched, hold_gids = self._fetch_group(group, budget)
            held.update(hold_gids)
            if fetched:
                budget -= fetched
                sessions += 1
                fetched_gids.add(group.gid)
                if self.obs.tracing:
                    self.obs.emit(
                        EventKind.FETCH,
                        self.cycle,
                        tid=group.leader,
                        pc=pc,
                        gid=group.gid,
                        mask=group.mask,
                        mode=self.sync.mode_of(group).value,
                        count=fetched,
                    )
        self.stats.fetch_sessions += sessions

    def _try_remerge(self) -> None:
        pcs: dict[int, int] = {}
        for group in self.sync.active_groups():
            if self._group_stalled(group):
                continue
            pc = self._group_pc(group)
            if pc is not None:
                pcs[group.gid] = pc
        self.sync.check_merges(pcs, self.cycle)

    def _fetch_group(self, group: ThreadGroup, budget: int) -> tuple[int, set[int]]:
        cfg = self.config
        members = threads_of(group.mask)
        mode = self.sync.mode_of(group)
        blocks = self.trace_model.blocks_per_fetch()
        count = 0
        first_access = True
        hold_gids: set[int] = set()
        # PCs of the other groups: reaching one of them is a remerge point,
        # so the session stops there and the merge completes next cycle.
        other_pcs: dict[int, int] = {}
        if self.mmt.shared_fetch and len(self.sync.groups) > 1:
            for other in self.sync.groups:
                if other is not group:
                    pc = self._group_pc(other)
                    if pc is not None:
                        other_pcs[pc] = other.gid
        while budget - count > 0:
            if len(self.decode_buffer) >= cfg.decode_buffer_size:
                break
            pc = self._peek_pc(members[0])
            if pc is None:
                break
            if first_access:
                latency = self.hierarchy.fetch_latency(pc)
                if latency > cfg.memory.l1_latency:
                    stall = self.cycle + latency
                    for tid in members:
                        self.fetch_stall_until[tid] = stall
                    self.stats.icache_stall_cycles += latency
                    break
                first_access = False
            records = {}
            lockstep = True
            for tid in members:
                rec = records[tid] = self._next_record(tid)
                if rec.pc != pc:
                    lockstep = False
            if not lockstep:
                raise RuntimeError(f"merged fetch out of lockstep at pc={pc}")
            di = DynInst(
                self._next_seq(),
                pc,
                records[members[0]].inst,
                group.mask,
                records,
                mode,
            )
            self.decode_buffer.append(di)
            count += 1
            for tid in members:
                self.icount[tid] += 1
            self.stats.fetched_thread_insts += len(members)
            self.stats.fetched_entries += 1
            self.stats.fetched_by_mode[mode] += len(members)

            if di.halt:
                for tid in members:
                    self.fetch_done[tid] = True
                    self.sync.on_halt(tid)
                break
            if (
                self.mmt.use_hints
                and di.inst.op is Opcode.HINT
                and not self.sync.is_fully_merged()
            ):
                self._handle_hint(pc, members)
                break
            if di.inst.is_control:
                outcome = self._handle_control(di, group, members, records)
                if outcome in ("divergence", "mispredict"):
                    break
                if outcome == "taken":
                    blocks -= 1
                    if blocks <= 0:
                        break
            if other_pcs:
                next_pc = self._peek_pc(members[0])
                if next_pc in other_pcs:
                    # Reached another group's PC: hold that group so the
                    # merge completes at the next cycle's equality check.
                    hold_gids.add(other_pcs[next_pc])
                    break
        return count, hold_gids

    def _handle_hint(self, pc: int, members: tuple[int, ...]) -> None:
        """Software remerge rendezvous (Thread Fusion style, extension).

        The first group reaching the HINT parks (bounded by
        ``hint_window``); a later group reaching the same hint releases it,
        leaving both groups' next fetch PCs equal so the normal PC-equality
        check merges them on the following cycle.
        """
        parked = self._hint_parked.get(pc)
        if parked is not None and parked[1] >= self.cycle:
            for tid in parked[0]:
                self.fetch_stall_until[tid] = 0
            del self._hint_parked[pc]
            self.stats.hint_releases += 1
            if self.obs.tracing:
                self.obs.emit(
                    EventKind.HINT,
                    self.cycle,
                    tid=members[0],
                    pc=pc,
                    action="release",
                    released=parked[0],
                )
            return
        deadline = self.cycle + self.mmt.hint_window
        for tid in members:
            self.fetch_stall_until[tid] = deadline
        self._hint_parked[pc] = (list(members), deadline)
        self.stats.hint_parks += 1
        if self.obs.tracing:
            self.obs.emit(
                EventKind.HINT,
                self.cycle,
                tid=members[0],
                pc=pc,
                action="park",
                parked=list(members),
                deadline=deadline,
            )

    # --------------------------------------------------------- control flow
    def _handle_control(
        self,
        di: DynInst,
        group: ThreadGroup,
        members: tuple[int, ...],
        records: dict[int, Executed],
    ) -> str:
        inst = di.inst
        pc = di.pc
        leader = members[0]
        leader_rec = records[leader]

        pred_next = self._predict(di, leader, leader_rec)

        next_pcs = {tid: records[tid].next_pc for tid in members}
        if len(set(next_pcs.values())) > 1:
            return self._handle_divergence(di, group, leader, next_pcs, pred_next)

        actual_next = next_pcs[leader]
        taken = actual_next != pc + 1
        if taken:
            self.sync.on_taken_branch(group, actual_next)
        if pred_next != actual_next:
            for tid in members:
                self.stalled_on_branch[tid] = di
            di.mispredicted = True
            self.stats.branch_mispredicts += 1
            if self.obs.tracing:
                self.obs.emit(
                    EventKind.MISPREDICT,
                    self.cycle,
                    tid=leader,
                    pc=pc,
                    seq=di.seq,
                    predicted=pred_next,
                    actual=actual_next,
                )
            return "mispredict"
        return "taken" if taken else "continue"

    def _predict(self, di: DynInst, leader: int, leader_rec: Executed) -> int | None:
        """Run the front-end predictors; returns the predicted next PC."""
        inst = di.inst
        pc = di.pc
        if inst.is_branch:
            self.stats.branches_fetched += 1
            pred_taken = self.bpred.predict(pc, leader)
            di.pred_taken = pred_taken
            if pred_taken:
                pred_next = self.btb.predict(pc)  # None = target unknown
            else:
                pred_next = pc + 1
            self.bpred.update(pc, leader, bool(leader_rec.taken), pred_taken)
            if leader_rec.taken:
                self.btb.update(pc, leader_rec.next_pc)
            di.pred_target = pred_next
            return pred_next
        if inst.op is Opcode.JR:
            pred_next = self.ras[leader].pop()  # simlint: ignore — LIFO stack
            di.pred_target = pred_next
            return pred_next
        # Direct jumps: target known at fetch/decode, no bubble modelled.
        if inst.op is Opcode.JAL:
            self.ras[leader].push(pc + 1)
        di.pred_target = inst.target
        return inst.target

    def _handle_divergence(
        self,
        di: DynInst,
        group: ThreadGroup,
        leader: int,
        next_pcs: dict[int, int],
        pred_next: int | None,
    ) -> str:
        """Member threads disagree on the next PC: split the group.

        The subgroup whose path matches the front-end prediction keeps
        fetching; every other subgroup waits for the control instruction to
        resolve (its instructions would have been wrong-path).
        """
        self.stats.divergences_at_fetch += 1
        by_pc: dict[int, int] = {}
        for tid, next_pc in next_pcs.items():
            by_pc[next_pc] = by_pc.get(next_pc, 0) | (1 << tid)
        subgroups = self.sync.on_divergence(group, list(by_pc.values()), self.cycle)
        any_stalled = False
        for subgroup in subgroups:
            sub_leader = subgroup.leader
            if sub_leader != leader:
                self.bpred.sync_history(leader, sub_leader)
                self.ras[sub_leader].copy_from(self.ras[leader])
            sub_next = next_pcs[sub_leader]
            if sub_next != di.pc + 1:
                self.sync.on_taken_branch(subgroup, sub_next)
            if sub_next != pred_next:
                for tid in threads_of(subgroup.mask):
                    self.stalled_on_branch[tid] = di
                any_stalled = True
        if any_stalled:
            di.mispredicted = True
            self.stats.branch_mispredicts += 1
            if self.obs.tracing:
                self.obs.emit(
                    EventKind.MISPREDICT,
                    self.cycle,
                    tid=leader,
                    pc=di.pc,
                    seq=di.seq,
                    divergence=True,
                )
        return "divergence"
