"""Issue, execute, and writeback.

Issue selects ready instructions from the issue queue oldest-first, bounded
by the issue width and the ALU/FPU pools (fully pipelined; latency per
operation class).  Loads issue their address generation, then hand over to
the LSQ's memory phase; everything else completes after its FU latency.

Writeback enforces the repository's core correctness invariant: an
instruction executed once for several threads must produce the per-thread
oracle's value for *every* owning thread.  Source operands are likewise
checked against the oracle at issue.  Any bug in the RST, splitter, LVIP,
or register-merging machinery trips :class:`SimulationInvariantError`.

Merged multi-execution loads verify their LVIP prediction here: when the
per-thread accesses return different values, the disagreeing threads are
squashed back to the load (paper §4.2.5) and the load's destination is
split into per-value-class physical registers.
"""

from __future__ import annotations

from repro.core.config import WorkloadType
from repro.core.itid import FIRST_THREAD, POPCOUNT, THREADS_OF
from repro.core.regmerge import values_equal
from repro.isa.opcodes import OpClass
from repro.obs.events import EventKind
from repro.pipeline.dyninst import DynInst, InstState
from repro.pipeline.squash import squash_thread

_FPU_CLASSES = (OpClass.FADD, OpClass.FMUL, OpClass.FDIV)
_ISSUED = InstState.ISSUED
_WAITING_MEM = InstState.WAITING_MEM
_DONE = InstState.DONE


class SimulationInvariantError(RuntimeError):
    """The detailed machine's values diverged from the functional oracle."""


class IssueStageMixin:
    """Issue/execute/writeback logic for :class:`~repro.pipeline.smt.SMTCore`."""

    # ----------------------------------------------------------------- issue
    def issue_stage(self) -> None:
        """Issue ready instructions oldest-first, bounded by issue width
        and ALU/FPU slots, scheduling completion/agen wakeups.

        Effects:
            writes: _agen_events, _complete_events, iq, stats
        """
        iq = self.iq
        if not iq:
            return
        cfg = self.config
        issue_width = cfg.issue_width
        alu_slots = cfg.num_alu
        fpu_slots = cfg.num_fpu
        ready = self.regfile.ready
        value = self.regfile.value
        now = self.cycle
        agen_events = self._agen_events
        complete_events = self._complete_events
        tracing = self.obs.tracing
        issued = issued_fpu = stalls = reads = 0
        try:
            for di in list(iq):
                if issued >= issue_width:
                    break
                if di.dead:
                    iq.remove(di)
                    continue
                psrcs = di.psrcs
                operands_ready = True
                for p in psrcs:
                    if not ready[p]:
                        operands_ready = False
                        break
                if not operands_ready:
                    continue
                inst = di.inst
                is_fpu = inst.klass in _FPU_CLASSES
                if is_fpu:
                    if fpu_slots <= 0:
                        stalls += 1
                        continue
                    fpu_slots -= 1
                else:
                    if alu_slots <= 0:
                        stalls += 1
                        continue
                    alu_slots -= 1
                iq.remove(di)
                if psrcs:
                    # Operand verification: every owning thread's oracle
                    # operands.  Values flow as the same objects from the
                    # oracle records into the register file, so the
                    # identity test almost always settles it (NaN falls
                    # through to the full comparison).
                    values = [value[p] for p in psrcs]
                    execs = di.execs
                    for tid in THREADS_OF[di.itid]:
                        for got, want in zip(values, execs[tid].src_vals):
                            if got is want and got == want:
                                continue
                            if not values_equal(got, want):
                                raise SimulationInvariantError(
                                    f"t{tid} {di!r}: operand {got!r} "
                                    f"!= oracle {want!r}"
                                )
                reads += len(psrcs)
                di.state = _ISSUED
                # Completion (loads: address generation) after the class
                # latency, never earlier than the next cycle.
                when = now + inst.latency
                if when <= now:
                    when = now + 1
                if inst.is_load:
                    agen_events.setdefault(when, []).append(di)
                else:
                    complete_events.setdefault(when, []).append(di)
                issued += 1
                if is_fpu:
                    issued_fpu += 1
                if tracing:
                    self.obs.emit(
                        EventKind.ISSUE,
                        now,
                        tid=FIRST_THREAD[di.itid],
                        pc=di.pc,
                        seq=di.seq,
                        itid=di.itid,
                        op=inst.op.value,
                    )
        finally:
            stats = self.stats
            stats.fu_contention_stalls += stalls
            stats.regfile_reads += reads
            stats.issued_entries += issued
            stats.issued_fpu_entries += issued_fpu

    # ------------------------------------------------------------ scheduling
    def schedule_completion(self, di: DynInst, cycle: int) -> None:
        """Queue *di*'s writeback for *cycle* (at least next cycle)."""
        cycle = max(cycle, self.cycle + 1)
        self._complete_events.setdefault(cycle, []).append(di)

    # ------------------------------------------------------------- writeback
    def writeback_stage(self) -> None:
        """Drain this cycle's agen/complete events: wake dependents,
        verify LVIP uses, resolve control, update the RST.

        Effects:
            writes: _agen_events, _complete_events, decode_buffer,
                fetch_stall_until, icount, iq, lsq, lvip, rat, regfile,
                replay, rob, rst, stalled_on_branch, stats, sync,
                thread_queues
        """
        now = self.cycle
        loads = self._agen_events.pop(now, None)
        if loads is not None:
            # Address generated: create the pending-access map.  Shared
            # memory makes one access whatever the ITID; separate address
            # spaces make one per owning thread.
            shared_memory = self.job.wtype is WorkloadType.MULTI_THREADED
            for di in loads:
                if di.dead:
                    continue
                di.state = _WAITING_MEM
                if shared_memory:
                    di.mem_pending = {FIRST_THREAD[di.itid]: None}
                else:
                    di.mem_pending = {tid: None for tid in THREADS_OF[di.itid]}
        done = self._complete_events.pop(now, None)
        if done is None:
            return
        value = self.regfile.value
        ready = self.regfile.ready
        executed = writes = 0
        try:
            for di in done:
                if di.dead:
                    continue
                inst = di.inst
                if (
                    inst.is_load
                    and di.lvip_predicted_identical
                    and POPCOUNT[di.itid] >= 2
                    and di.pdst_by_tid is None
                ):
                    self._verify_lvip(di)
                if inst.dst is not None:
                    # Write the result; re-read the destination after the
                    # LVIP check, which may split it per value class.
                    execs = di.execs
                    pdst_by_tid = di.pdst_by_tid
                    if pdst_by_tid is not None:
                        written = set()
                        for tid, preg in pdst_by_tid.items():
                            if preg not in written:
                                value[preg] = execs[tid].result
                                ready[preg] = True
                                writes += 1
                                written.add(preg)
                    else:
                        owners = THREADS_OF[di.itid]
                        result = execs[owners[0]].result
                        if len(owners) >= 2:
                            for tid in owners[1:]:
                                other = execs[tid].result
                                if other is result and other == result:
                                    continue
                                if not values_equal(result, other):
                                    results = [execs[t].result for t in owners]
                                    raise SimulationInvariantError(
                                        f"merged {di!r} produced differing "
                                        f"results {results!r}"
                                    )
                        pdst = di.pdst
                        value[pdst] = result
                        ready[pdst] = True
                        writes += 1
                di.state = _DONE
                di.complete_cycle = now
                executed += 1
                if di.mispredicted:
                    self._resolve_branch(di)
        finally:
            self.stats.executed_entries += executed
            self.stats.regfile_writes += writes

    def _resolve_branch(self, di: DynInst) -> None:
        """A mispredicted control instruction resolved: release its waiters."""
        resume = self.cycle + self.config.mispredict_penalty
        for tid in range(self.num_threads):
            if self.stalled_on_branch[tid] is di:
                self.stalled_on_branch[tid] = None
                self.fetch_stall_until[tid] = max(
                    self.fetch_stall_until[tid], resume
                )
        self.stats.fetch_stall_mispredict_cycles += self.config.mispredict_penalty

    # ------------------------------------------------------------------ LVIP
    def _verify_lvip(self, di: DynInst) -> None:
        """Compare the per-thread values of a merged ME load (paper §4.2.5)."""
        classes: list[list[int]] = []
        for tid in THREADS_OF[di.itid]:
            value = di.execs[tid].result
            for group in classes:
                if values_equal(di.execs[group[0]].result, value):
                    group.append(tid)
                    break
            else:
                classes.append([tid])
        if len(classes) == 1:
            self.lvip.record_identical(di.pc)
            return

        # Misprediction: keep the leader's class on the allocated register,
        # squash the disagreeing threads back to the load, and give every
        # other value class its own destination register.
        self.lvip.record_mispredict(di.pc)
        self.stats.lvip_mispredicts += 1
        di.lvip_mispredicted = True
        dst = di.inst.dst
        leader = FIRST_THREAD[di.itid]
        keep = next(group for group in classes if leader in group)
        di.pdst_by_tid = {tid: di.pdst for tid in keep}
        for group in classes:
            if group is keep:
                continue
            for tid in group:
                squash_thread(self, tid, after_seq=di.seq)
            if dst is not None:
                new_preg = self.regfile.alloc(map_claims=len(group))
                for tid in group:
                    if not self.rat.mapping_valid(tid, dst, di.pdst):
                        raise RuntimeError("LVIP split found stale mapping")
                    self.rat.set(tid, dst, new_preg)
                    self.regfile.drop_map_claim(di.pdst)
                    di.pdst_by_tid[tid] = new_preg
        if dst is not None:
            for a_index, group_a in enumerate(classes):
                for group_b in classes[a_index + 1:]:
                    for t in group_a:
                        for u in group_b:
                            self.rst.set_pair(dst, t, u, False)
