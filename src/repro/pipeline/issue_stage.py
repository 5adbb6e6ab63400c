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

from repro.core.itid import first_thread, threads_of
from repro.core.regmerge import values_equal
from repro.isa.opcodes import DEFAULT_LATENCY, OpClass
from repro.obs.events import EventKind
from repro.pipeline.dyninst import DynInst, InstState
from repro.pipeline.squash import squash_thread

_FPU_CLASSES = (OpClass.FADD, OpClass.FMUL, OpClass.FDIV)


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
        cfg = self.config
        alu_slots = cfg.num_alu
        fpu_slots = cfg.num_fpu
        issued = 0
        ready = self.regfile.ready
        tracing = self.obs.tracing
        for di in list(self.iq):
            if issued >= cfg.issue_width:
                break
            if di.dead:
                self.iq.remove(di)
                continue
            operands_ready = True
            for p in di.psrcs:
                if not ready[p]:
                    operands_ready = False
                    break
            if not operands_ready:
                continue
            is_fpu = di.inst.klass in _FPU_CLASSES
            if is_fpu:
                if fpu_slots <= 0:
                    self.stats.fu_contention_stalls += 1
                    continue
                fpu_slots -= 1
            else:
                if alu_slots <= 0:
                    self.stats.fu_contention_stalls += 1
                    continue
                alu_slots -= 1
            self.iq.remove(di)
            if self.strict:
                self._verify_sources(di)
            self.stats.regfile_reads += len(di.psrcs)
            latency = DEFAULT_LATENCY[di.inst.klass]
            di.state = InstState.ISSUED
            if di.inst.is_load:
                self._schedule_agen(di, self.cycle + latency)
            else:
                self.schedule_completion(di, self.cycle + latency)
            issued += 1
            self.stats.issued_entries += 1
            if is_fpu:
                self.stats.issued_fpu_entries += 1
            if tracing:
                self.obs.emit(
                    EventKind.ISSUE,
                    self.cycle,
                    tid=first_thread(di.itid),
                    pc=di.pc,
                    seq=di.seq,
                    itid=di.itid,
                    op=di.inst.op.value,
                )

    def _verify_sources(self, di: DynInst) -> None:
        """Check operand values against every owning thread's oracle record."""
        values = [self.regfile.value[p] for p in di.psrcs]
        for tid in threads_of(di.itid):
            expected = di.execs[tid].src_vals
            for got, want in zip(values, expected):
                if not values_equal(got, want):
                    raise SimulationInvariantError(
                        f"t{tid} {di!r}: operand {got!r} != oracle {want!r}"
                    )

    # ------------------------------------------------------------ scheduling
    def schedule_completion(self, di: DynInst, cycle: int) -> None:
        """Queue *di*'s writeback for *cycle* (at least next cycle)."""
        cycle = max(cycle, self.cycle + 1)
        self._complete_events.setdefault(cycle, []).append(di)

    def _schedule_agen(self, di: DynInst, cycle: int) -> None:
        cycle = max(cycle, self.cycle + 1)
        self._agen_events.setdefault(cycle, []).append(di)

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
        for di in self._agen_events.pop(now, ()):  # loads: address generated
            if di.dead:
                continue
            di.state = InstState.WAITING_MEM
            self.lsq.init_load_units(di, self.job.wtype)
        for di in self._complete_events.pop(now, ()):
            if di.dead:
                continue
            self._complete(di)

    def _complete(self, di: DynInst) -> None:
        inst = di.inst
        if (
            inst.is_load
            and di.lvip_predicted_identical
            and di.num_threads >= 2
            and di.pdst_by_tid is None
        ):
            self._verify_lvip(di)
        if inst.dst is not None:
            self._write_results(di)
        di.state = InstState.DONE
        di.complete_cycle = self.cycle
        self.stats.executed_entries += 1
        if di.mispredicted:
            self._resolve_branch(di)

    def _write_results(self, di: DynInst) -> None:
        if di.pdst_by_tid is not None:
            written = set()
            for tid, preg in di.pdst_by_tid.items():
                if preg not in written:
                    self.regfile.write(preg, di.execs[tid].result)
                    self.stats.regfile_writes += 1
                    written.add(preg)
            return
        results = [di.execs[tid].result for tid in threads_of(di.itid)]
        if self.strict and di.num_threads >= 2:
            head = results[0]
            for value in results[1:]:
                if not values_equal(head, value):
                    raise SimulationInvariantError(
                        f"merged {di!r} produced differing results {results!r}"
                    )
        self.regfile.write(di.pdst, results[0])
        self.stats.regfile_writes += 1

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
        for tid in threads_of(di.itid):
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
        leader = first_thread(di.itid)
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
