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

from repro.core.itid import POPCOUNT, THREADS_OF
from repro.core.sync import ThreadGroup
from repro.func.executor import Executed, ExecutionError
from repro.isa.opcodes import Opcode
from repro.obs.events import EventKind
from repro.pipeline.dyninst import DynInst

#: Functional records produced per stream refill.  Large enough to amortize
#: the batching overhead, small enough to bound memory (~a few MB of
#: records per context).
_BATCH = 8192

_HALT = Opcode.HALT
_HINT = Opcode.HINT
_new_dyninst = DynInst.__new__


class FetchStageMixin:
    """Fetch logic for :class:`~repro.pipeline.smt.SMTCore`."""

    # ----------------------------------------------------- record streaming
    def _refill(self, tid: int) -> None:
        """Run thread *tid*'s functional oracle ahead by up to ``_BATCH``
        records (functional-first streaming; see ``SMTCore.__init__`` for
        which contexts stream).

        A trap (``ExecutionError``) or HALT ends streaming for the thread:
        the failing step mutates nothing, so the trap re-raises inline at
        the architecturally correct fetch once the buffered records drain.
        The oracle's dispatch table is driven directly, skipping
        ``FastExecutor.step``'s per-call re-validation (its halted and PC
        bound checks are replicated here; un-compiled PCs take the
        reference ``step``).
        """
        recs = self._recs[tid]
        recs.clear()
        self._pos[tid] = 0
        oracle = self.oracles[tid]
        state = oracle.state
        ops = oracle._ops
        nops = len(ops)
        slow_step = oracle.step
        append = recs.append
        instret = oracle.instret
        try:
            for _ in range(_BATCH):
                if state.halted:
                    self._stream[tid] = False
                    break
                pc = state.pc
                fn = ops[pc] if 0 <= pc < nops else None
                if fn is None:
                    oracle.instret = instret
                    append(slow_step())
                    instret = oracle.instret
                else:
                    append(fn(state))
                    instret += 1
        except ExecutionError:
            self._stream[tid] = False
        finally:
            oracle.instret = instret

    def _peek_pc(self, tid: int) -> int | None:
        """Next PC thread *tid* will fetch, or None when it has finished."""
        replay = self.replay[tid]
        if replay:
            return replay[0].pc
        if self.fetch_done[tid]:
            return None
        pos = self._pos[tid]
        recs = self._recs[tid]
        if pos < len(recs):
            return recs[pos].pc
        return self.oracles[tid].state.pc

    def _next_record(self, tid: int) -> Executed:
        """Thread *tid*'s next record: replay queue, then the buffered
        stream (refilled while the thread streams), then the live oracle."""
        replay = self.replay[tid]
        if replay:
            return replay.popleft()
        pos = self._pos[tid]
        recs = self._recs[tid]
        if pos < len(recs):
            self._pos[tid] = pos + 1
            return recs[pos]
        if self._stream[tid]:
            self._refill(tid)
            if recs:
                self._pos[tid] = 1
                return recs[0]
        return self.oracles[tid].step()

    # ------------------------------------------------------------- plumbing
    def _group_pc(self, group: ThreadGroup) -> int | None:
        """The group's common next fetch PC (None if any member finished)."""
        pc = None
        for tid in THREADS_OF[group.mask]:
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
        members = THREADS_OF[group.mask]
        if group.drain_pending:
            # Post-remerge drain (only worthwhile when register merging can
            # exploit it): hold fetch briefly while the members' in-flight
            # work commits, so the §4.2.7 comparisons see valid mappings.
            if (
                self.mmt.register_merging
                and self.cycle - group.created_cycle < self.mmt.remerge_drain
                and any(self.icount[tid] > 0 for tid in members)
            ):
                return True
            group.drain_pending = False
        fetch_stall_until = self.fetch_stall_until
        stalled_on_branch = self.stalled_on_branch
        cycle = self.cycle
        for tid in members:
            if fetch_stall_until[tid] > cycle:
                return True
            if stalled_on_branch[tid] is not None:
                return True
        return False

    # ------------------------------------------------------------ main stage
    def fetch_stage(self) -> None:
        """Fetch groups in ICOUNT priority order, one session per group,
        driving prediction, hint parking, and the sync FSM.

        Effects:
            writes: _hint_parked, _pos, _seq, _stream, bpred, btb,
                decode_buffer, fetch_done, fetch_stall_until, icount, ras,
                stalled_on_branch, stats, sync
        """
        cfg = self.config
        sync = self.sync
        if self.mmt.shared_fetch:
            self._try_remerge()
        budget = cfg.fetch_width
        groups_per_cycle = cfg.fetch_groups_per_cycle
        icount = self.icount
        icounts = {}
        for g in sync.groups:
            total = 0
            for tid in THREADS_OF[g.mask]:
                total += icount[tid]
            icounts[g.gid] = total / POPCOUNT[g.mask]
        sessions = 0
        # When a group's session ends exactly at another group's PC (an
        # imminent remerge), that other group is held for the rest of this
        # cycle so the PCs are still equal when the merge check runs.
        held: set[int] = set()
        fetched_gids: set[int] = set()
        for group in sync.fetch_order(icounts):
            if budget <= 0 or sessions >= groups_per_cycle:
                break
            if group.gid in held:
                continue
            # A CATCHUP 'ahead' group yields whenever its chaser made
            # progress this cycle: feeding it leftover bandwidth would let
            # it lap the (cyclic) PC space and remerge a whole iteration
            # out of alignment.
            behinds = sync.behinds_of(group.gid)
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
                        mode=sync.mode_of(group).value,
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
        """One fetch session: up to *budget* entries for *group*; returns
        (entries fetched, gids to hold for the rest of the cycle)."""
        cfg = self.config
        sync = self.sync
        mask = group.mask
        members = THREADS_OF[mask]
        nmem = len(members)
        lead = members[0]
        mode = sync.mode_of(group)
        blocks = self.trace_model.blocks_per_fetch()
        count = 0
        first_access = True
        hold_gids: set[int] = set()
        # PCs of the other groups: reaching one of them is a remerge point,
        # so the session stops there and the merge completes next cycle.
        other_pcs: dict[int, int] = {}
        if self.mmt.shared_fetch and len(sync.groups) > 1:
            for other in sync.groups:
                if other is not group:
                    pc = self._group_pc(other)
                    if pc is not None:
                        other_pcs[pc] = other.gid
        decode_buffer = self.decode_buffer
        decode_buffer_size = cfg.decode_buffer_size
        replay = self.replay
        recs_by_tid = self._recs
        pos = self._pos
        stream = self._stream
        states = self.states
        oracles = self.oracles
        fetch_done = self.fetch_done
        icount = self.icount
        use_hints = self.mmt.use_hints
        seq = self._seq
        try:
            while budget - count > 0:
                if len(decode_buffer) >= decode_buffer_size:
                    break
                # _peek_pc(lead), inlined.
                lead_replay = replay[lead]
                if lead_replay:
                    pc = lead_replay[0].pc
                elif fetch_done[lead]:
                    break
                else:
                    p = pos[lead]
                    recs = recs_by_tid[lead]
                    pc = recs[p].pc if p < len(recs) else states[lead].pc
                if first_access:
                    latency = self.hierarchy.fetch_latency(pc)
                    if latency > cfg.memory.l1_latency:
                        stall = self.cycle + latency
                        for tid in members:
                            self.fetch_stall_until[tid] = stall
                        self.stats.icache_stall_cycles += latency
                        break
                    first_access = False
                # _next_record(tid) for every member, inlined; the method
                # only runs to refill a drained stream.
                records = {}
                lockstep = True
                for tid in members:
                    tid_replay = replay[tid]
                    if tid_replay:
                        rec = tid_replay.popleft()
                    else:
                        p = pos[tid]
                        recs = recs_by_tid[tid]
                        if p < len(recs):
                            pos[tid] = p + 1
                            rec = recs[p]
                        elif stream[tid]:
                            rec = self._next_record(tid)
                        else:
                            rec = oracles[tid].step()
                    records[tid] = rec
                    if rec.pc != pc:
                        lockstep = False
                if not lockstep:
                    raise RuntimeError(f"merged fetch out of lockstep at pc={pc}")
                # DynInst(...), inlined: the per-instruction fields in
                # constructor order; the rest are class defaults.
                inst = records[lead].inst
                seq += 1
                di = _new_dyninst(DynInst)
                di.seq = seq
                di.pc = pc
                di.inst = inst
                di.itid = mask
                di.execs = records
                di.fetch_mode = mode
                di.fetch_merged_width = nmem
                di.psrcs = []
                di.prev_map = {}
                di.halt = halt = inst.op is _HALT
                decode_buffer.append(di)
                count += 1
                for tid in members:
                    icount[tid] += 1

                if halt:
                    for tid in members:
                        fetch_done[tid] = True
                        sync.on_halt(tid)
                    break
                if use_hints and inst.op is _HINT and not sync.is_fully_merged():
                    self._handle_hint(pc, members)
                    break
                if inst.is_control:
                    outcome = self._handle_control(di, group, members, records)
                    if outcome in ("divergence", "mispredict"):
                        break
                    if outcome == "taken":
                        blocks -= 1
                        if blocks <= 0:
                            break
                if other_pcs:
                    next_pc = self._peek_pc(lead)
                    if next_pc in other_pcs:
                        # Reached another group's PC: hold that group so the
                        # merge completes at the next cycle's equality check.
                        hold_gids.add(other_pcs[next_pc])
                        break
        finally:
            if count:
                self._seq = seq
                stats = self.stats
                stats.fetched_thread_insts += count * nmem
                stats.fetched_entries += count
                stats.fetched_by_mode[mode] += count * nmem
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
                for tid in THREADS_OF[subgroup.mask]:
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
