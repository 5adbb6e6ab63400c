"""Fast-path pipeline engine: a drop-in, cycle-exact `SMTCore` twin.

:class:`FastSMTCore` produces bit-identical architectural state, statistics,
and per-cycle fetch/commit traces to the reference :class:`SMTCore` while
running several times faster.  Nothing about the *model* changes — only how
the same transitions are computed:

* **a monolithic cycle loop** — the five pipeline stages are inlined into
  one function with every configuration flag, statistic counter, and
  mutable structure hoisted into locals, eliminating the per-cycle
  attribute-lookup and method-call overhead that dominates the reference;
* **fallbacks over forks** — every divergence-sensitive event (traps,
  sync-FSM transitions, LVIP mispredict squashes, software hints, store
  commit) delegates to the *reference* implementation inherited from
  ``SMTCore``, so the rare paths are the proven paths.

Observability splits on the observer's ``fast_capable`` flag.  A
fast-capable observer (:class:`~repro.obs.sampling.SampledObserver`) is
serviced from *inside* the fast loop: one precomputed boundary-cycle
compare per iteration, with the localized counters flushed into
``SimStats`` at each boundary so interval samples land at exactly the
reference cycles with exactly the reference deltas — rare-path, memory,
and sync events still reach an attached flight recorder, and the
no-progress watchdog fires at boundary granularity.  Any *other* active
observer (full event sinks need per-stage emission sites) drops
:meth:`run` back to the reference ``SMTCore.run`` loop entirely — event
order and watchdog semantics preserved exactly.  The reference core's
staged loop remains the differential oracle.  Both engines share
everything else: the pre-decoded functional oracles, their
functional-first record streams (``SMTCore._refill``), the lookup
tables, and the collector pause (:func:`~repro.pipeline.smt.gc_paused`).
"""

from __future__ import annotations

from repro.core.config import MMTConfig, WorkloadType
from repro.core.itid import FIRST_THREAD, PAIRS_IN_MASK, POPCOUNT, THREADS_OF
from repro.core.rst import PAIRS_TOUCHING, PAIRS_WITHIN
from repro.core.sync import FetchMode
from repro.isa.opcodes import OpClass, Opcode
from repro.obs.observer import Observer
from repro.pipeline.config import MachineConfig
from repro.pipeline.dyninst import DynInst, InstState
from repro.pipeline.issue_stage import SimulationInvariantError
from repro.pipeline.job import Job
from repro.pipeline.smt import SMTCore, gc_paused
from repro.pipeline.stats import SimStats

__all__ = ["FastSMTCore", "ENGINES", "resolve_engine"]

#: For two-thread masks, the RST pair-bit index of that thread pair.
_PB = tuple(
    PAIRS_IN_MASK[m][0] if POPCOUNT[m] == 2 else -1 for m in range(16)
)

def analyze_specialization(program, nctx: int):
    """Never called; the name exists only because the campaign benchmark's
    tracer (``campaignbench/layers.py``) wraps it.  Delete it together with
    that hook."""
    raise NotImplementedError("the fast engine has no specialization layer")


class FastSMTCore(SMTCore):
    """Cycle-exact fast engine; see the module docstring for the design."""

    def __init__(
        self,
        machine: MachineConfig,
        mmt: MMTConfig,
        job: Job,
        warm_caches: bool = True,
        obs: Observer | None = None,
        trace: list | None = None,
    ) -> None:
        super().__init__(machine, mmt, job, warm_caches=warm_caches, obs=obs)
        #: Optional per-cycle trace sink: the fast loop appends
        #: ``("F", cycle, tid, pc, gid, mask, mode, count)`` and
        #: ``("C", cycle, tid, pc, seq, itid, threads)`` tuples, mirroring
        #: the reference observer's FETCH/COMMIT events.
        self.trace = trace
        #: True once :meth:`_run_fast` actually ran (False after a
        #: reference-loop fallback) — the telemetry test suite asserts on
        #: this to prove sampled runs stayed in the fast loop.
        self.ran_fast_loop = False

    # ------------------------------------------------------------------ run
    def run(self) -> SimStats:
        """Run to completion, cycle-exact with the reference core.

        A fast-capable observer (``obs.fast_capable``, i.e. a
        :class:`~repro.obs.sampling.SampledObserver`) is serviced from
        inside the fast loop — interval samples at exactly the reference
        boundaries, rare-path events into the flight recorder, watchdog
        at boundary granularity.  Any other active observer needs the
        per-stage hooks, so the reference loop runs instead, still
        accelerated by the fast oracles and record streams.
        """
        obs = self.obs
        if obs.active and not obs.fast_capable:
            if self.trace is not None:
                raise ValueError(
                    "trace capture requires the fast loop; detach the observer"
                )
            return SMTCore.run(self)
        with gc_paused():
            return self._run_fast()

    # -------------------------------------------------------- the fast loop
    def _run_fast(self) -> SimStats:
        cfg = self.config
        mmt = self.mmt
        stats = self.stats
        nthreads = self.num_threads
        is_mt = self.job.wtype is WorkloadType.MULTI_THREADED

        # Constant configuration, hoisted.
        limit = cfg.max_cycles
        fetch_width = cfg.fetch_width
        groups_per_cycle = cfg.fetch_groups_per_cycle
        decode_buffer_size = cfg.decode_buffer_size
        issue_width = cfg.issue_width
        commit_width = cfg.commit_width
        num_alu = cfg.num_alu
        num_fpu = cfg.num_fpu
        rob_size = cfg.rob_size
        iq_size = cfg.iq_size
        lsq_size = cfg.lsq_size
        ldst_ports = cfg.ldst_ports
        mispredict_penalty = cfg.mispredict_penalty
        l1_latency = cfg.memory.l1_latency
        shared_fetch = mmt.shared_fetch
        use_hints = mmt.use_hints
        register_merging = mmt.register_merging
        remerge_drain = mmt.remerge_drain
        merge_ports = self.regmerge.read_ports
        trace_blocks = self.trace_model.blocks_per_fetch()

        # Mutable structures, hoisted (all are mutated in place everywhere,
        # including by the delegated squash/sync/hint paths, so object
        # identity is stable for the whole run).
        states = self.states
        oracles = self.oracles
        replay = self.replay
        recs_by_tid = self._recs
        pos = self._pos
        stream = self._stream
        icount = self.icount
        fetch_stall_until = self.fetch_stall_until
        stalled_on_branch = self.stalled_on_branch
        fetch_done = self.fetch_done
        finished = self.finished
        thread_queues = self.thread_queues
        rob = self.rob
        iq = self.iq
        decode_buffer = self.decode_buffer
        lsq = self.lsq
        lsq_entries = lsq.entries
        agen_events = self._agen_events
        complete_events = self._complete_events
        regfile = self.regfile
        reg_value = regfile.value
        reg_ready = regfile.ready
        map_refs = regfile._map_refs
        src_refs = regfile._src_refs
        free_pregs = regfile._free
        rat_map = self.rat._map
        rst = self.rst
        rst_bits = rst._bits
        rst_taint = rst._taint
        shared_execute = mmt.shared_execute
        lvip_predict = self.lvip.predict_identical
        regmerge = self.regmerge
        no_active_writer = regmerge.no_active_writer
        sync = self.sync
        catchup_target = sync._catchup_target
        fetch_latency = self.hierarchy.fetch_latency
        data_access = self.hierarchy.data_access
        mshr_entries = self.hierarchy.mshr._entries
        mshr_tick = self.hierarchy.mshr.tick
        asids = self.asids
        trace = self.trace
        fbm = stats.fetched_by_mode

        # Sampled observability.  ``run`` has already diverted any
        # non-fast-capable observer to the reference loop, so here the
        # observer either is inert or implements the SampledObserver
        # contract: the loop pays one int compare per cycle against the
        # next boundary, and only at a boundary flushes the sampled
        # counters and calls in.  ``obs_tracing`` keeps ``obs.now``
        # current so delegated-path/memory/sync emissions into a flight
        # recorder carry correct cycle timestamps.
        self.ran_fast_loop = True
        obs = self.obs
        obs_active = obs.active
        obs_tracing = obs.tracing
        if obs_active:
            next_obs = obs.begin_fast_run(self)
            obs_tick = obs.fast_tick
        else:
            next_obs = limit + 1
            obs_tick = None

        tof = THREADS_OF
        popc = POPCOUNT
        ft = FIRST_THREAD
        pb = _PB
        pw = PAIRS_WITHIN
        pt = PAIRS_TOUCHING
        DECODED = InstState.DECODED
        WAITING = InstState.WAITING
        ISSUED = InstState.ISSUED
        WAITING_MEM = InstState.WAITING_MEM
        DONE = InstState.DONE
        COMMITTED = InstState.COMMITTED
        FADD = OpClass.FADD
        FMUL = OpClass.FMUL
        FDIV = OpClass.FDIV
        DETECT = FetchMode.DETECT
        CATCHUP = FetchMode.CATCHUP
        MERGE = FetchMode.MERGE
        HINT_OP = Opcode.HINT
        HALT_OPC = Opcode.HALT
        SEND_OP = Opcode.SEND
        TRECV_OP = Opcode.TRECV
        TID_OP = Opcode.TID
        new_di = DynInst.__new__
        num_regs_total = regfile.num_regs

        # Prototype instance dict for DynInst: entries are born by copying
        # this (the class-level defaults, as instance entries) and storing
        # the 10 per-instruction fields ``DynInst.__init__`` sets as plain
        # dict stores instead of interpreted attribute stores (the class
        # intentionally has no ``__slots__``).
        di_defaults = {
            "state": DECODED,
            "pdst": None,
            "pdst_by_tid": None,
            "merged_via_regmerge": False,
            "is_exec_merged": False,
            "complete_cycle": None,
            "pred_taken": None,
            "pred_target": None,
            "mispredicted": False,
            "lvip_predicted_identical": None,
            "mem_pending": None,
            "mem_done_count": 0,
            "store_committed_count": 0,
            "lsq_index": None,
            "dead": False,
            "lvip_mispredicted": False,
        }
        di_new = di_defaults.copy

        # Localized statistics (flushed additively in the finally block so
        # direct increments from delegated paths still sum correctly).
        c_thread = c_entries = c_exec_ident = c_exec_ident_rm = 0
        c_fetch_ident = halted_local = 0
        commit_counts = [0] * nthreads
        executed_local = rf_writes = rf_reads = 0
        issued_local = issued_fpu_local = fu_stalls = mispred_stall = 0
        load_acc = store_fwd = port_stalls = 0
        renamed_local = split_in = split_out = splits_local = 0
        stall_rob = stall_iq = stall_lsq = stall_regs = 0
        lvip_checks_local = lvip_pred_local = rst_updates_local = 0
        f_thread = f_entries = f_sessions = icache_stall = 0
        # Register allocation bookkeeping (flushed like the statistics;
        # delegated paths call regfile.alloc directly and keep their own).
        alloc_count = 0
        min_free = num_regs_total

        # Issue-wakeup scoreboard.  Readiness is monotonic while an entry
        # waits (source pregs hold src claims, so they are never freed and
        # re-allocated under a waiter), so instead of rescanning the whole
        # issue queue every cycle the fast loop wakes waiters when their
        # last source is written back.  ``ready_list`` holds (tick, entry)
        # pairs; ticks are assigned in rename order, which is exactly the
        # reference's issue-queue scan order, so sorting by tick reproduces
        # the reference's oldest-first selection bit for bit.  Squashed
        # entries are dropped lazily via their ``dead`` flag.
        waiters: dict[int, list] = {}
        ready_list: list = []
        iq_tick = 0

        # Fetch-side closures over the hoisted state (created once).
        def peek(tid: int):
            r = replay[tid]
            if r:
                return r[0].pc
            if fetch_done[tid]:
                return None
            p = pos[tid]
            rl = recs_by_tid[tid]
            return rl[p].pc if p < len(rl) else states[tid].pc

        def group_pc(group):
            gpc = None
            for t in tof[group.mask]:
                tp = peek(t)
                if tp is None:
                    return None
                if gpc is None:
                    gpc = tp
                elif gpc != tp:
                    raise RuntimeError(
                        f"group PC invariant violated: {group!r} at {gpc} vs {tp}"
                    )
            return gpc

        def group_stalled(group, now: int) -> bool:
            if group.drain_pending:
                if (
                    register_merging
                    and now - group.created_cycle < remerge_drain
                    and any(icount[t] > 0 for t in tof[group.mask])
                ):
                    return True
                group.drain_pending = False
            for t in tof[group.mask]:
                if fetch_stall_until[t] > now:
                    return True
                if stalled_on_branch[t] is not None:
                    return True
            return False

        seqno = self._seq
        commit_rr = self._commit_rr
        cycle = self.cycle
        #: WAITING_MEM loads not yet scheduled for completion; the LSQ load
        #: phase is a no-op (and skipped) while this is zero.  Maintained at
        #: the agen/schedule sites; recomputed after an LVIP squash (the
        #: only path that can kill a counted load).
        pending_loads = 0
        groups = sync.groups  # one list object for the whole run
        try:
            while not all(finished):
                if cycle >= limit:
                    raise RuntimeError(
                        f"simulation exceeded {limit} cycles "
                        f"(finished={finished}, cycle={cycle})"
                    )
                cycle += 1
                self.cycle = cycle
                if obs_tracing:
                    obs.now = cycle
                if mshr_entries:
                    mshr_tick(cycle)
                regmerge._ports_left = merge_ports
                self.ldst_ports_left = ldst_ports

                # ------------------------------------------------- commit
                budget = commit_width
                progress = True
                while budget > 0 and progress:
                    progress = False
                    for offset in range(nthreads):
                        if budget <= 0:
                            break
                        tid = (commit_rr + offset) % nthreads
                        queue = thread_queues[tid]
                        if not queue:
                            continue
                        di = queue[0]
                        if di.state is not DONE:
                            continue
                        itid = di.itid
                        owners = tof[itid]
                        k = len(owners)
                        if k > 1:
                            aligned = True
                            for u in owners:
                                if thread_queues[u][0] is not di:
                                    aligned = False
                                    break
                            if not aligned:
                                continue
                        inst = di.inst
                        if inst.is_store:
                            if not lsq.try_commit_store(di, self):
                                continue
                        # _commit(di), inlined.
                        c_thread += k
                        c_entries += 1
                        if k == 1:
                            commit_counts[tid] += 1
                            queue.popleft()
                            icount[tid] -= 1
                            if di.fetch_merged_width >= 2:
                                c_fetch_ident += 1
                        else:
                            c_exec_ident += k
                            if di.merged_via_regmerge:
                                c_exec_ident_rm += k
                            for u in owners:
                                commit_counts[u] += 1
                                thread_queues[u].popleft()
                                icount[u] -= 1
                        dst = inst.dst
                        if dst is not None:
                            valid_mask = 0
                            pbt = di.pdst_by_tid
                            pdst = di.pdst
                            for u in owners:
                                prev = di.prev_map[u]
                                refs = map_refs[prev] - 1
                                if refs < 0:
                                    raise RuntimeError(
                                        f"negative map refcount on p{prev}"
                                    )
                                map_refs[prev] = refs
                                if refs == 0 and src_refs[prev] == 0:
                                    free_pregs.append(prev)
                                cur = (
                                    pdst if pbt is None else pbt.get(u, pdst)
                                )
                                if rat_map[u][dst] == cur:
                                    no_active_writer[u][dst] = True
                                    valid_mask |= 1 << u
                            if (
                                register_merging
                                and valid_mask
                                and pbt is None
                                and (
                                    di.fetch_mode is DETECT
                                    or di.fetch_mode is CATCHUP
                                )
                            ):
                                self._commit_regmerge(di, owners, valid_mask, dst)
                        for preg in di.psrcs:
                            refs = src_refs[preg] - 1
                            if refs < 0:
                                raise RuntimeError(
                                    f"negative source refcount on p{preg}"
                                )
                            src_refs[preg] = refs
                            if refs == 0 and map_refs[preg] == 0:
                                free_pregs.append(preg)
                        if inst.is_mem:
                            lsq_entries.remove(di)
                        rob.remove(di)
                        di.state = COMMITTED
                        if trace is not None:
                            trace.append(
                                ("C", cycle, owners[0], di.pc, di.seq, itid, k)
                            )
                        if di.halt:
                            for u in owners:
                                if not finished[u]:
                                    finished[u] = True
                                    halted_local += 1
                        budget -= 1
                        progress = True
                commit_rr = (commit_rr + 1) % nthreads

                # ---------------------------------------------- writeback
                agen = agen_events.pop(cycle, None)
                if agen is not None:
                    for di in agen:
                        if di.dead:
                            continue
                        di.state = WAITING_MEM
                        pending_loads += 1
                        if is_mt:
                            di.mem_pending = {ft[di.itid]: None}
                        else:
                            di.mem_pending = {t: None for t in tof[di.itid]}
                done_events = complete_events.pop(cycle, None)
                if done_events is not None:
                    for di in done_events:
                        if di.dead:
                            continue
                        inst = di.inst
                        if (
                            inst.is_load
                            and di.lvip_predicted_identical
                            and popc[di.itid] >= 2
                            and di.pdst_by_tid is None
                        ):
                            self._verify_lvip(di)
                            if di.lvip_mispredicted:
                                # The squash may have killed counted loads
                                # (or re-armed one via drop_thread).
                                n = 0
                                for e in lsq_entries:
                                    if (
                                        e.state is WAITING_MEM
                                        and e.mem_done_count == 0
                                        and e.inst.is_load
                                    ):
                                        n += 1
                                pending_loads = n
                        if inst.dst is not None:
                            # _write_results(di), inlined.  Re-read after
                            # the LVIP check: it may split the destination.
                            pbt = di.pdst_by_tid
                            if pbt is not None:
                                written = set()
                                for u, preg in pbt.items():
                                    if preg not in written:
                                        reg_value[preg] = di.execs[u].result
                                        reg_ready[preg] = True
                                        rf_writes += 1
                                        written.add(preg)
                                        wl = waiters.pop(preg, None)
                                        if wl is not None:
                                            for m in wl:
                                                wdi = m[2]
                                                if wdi.dead:
                                                    continue
                                                n = m[0] - 1
                                                m[0] = n
                                                if n == 0:
                                                    ready_list.append(
                                                        (m[1], wdi)
                                                    )
                            else:
                                owners = tof[di.itid]
                                r0 = di.execs[owners[0]].result
                                if len(owners) >= 2:
                                    r0_float = isinstance(r0, float)
                                    for u in owners[1:]:
                                        ru = di.execs[u].result
                                        if ru is r0 and ru == r0:
                                            continue
                                        if (
                                            isinstance(ru, float) != r0_float
                                            or r0 != ru
                                        ):
                                            results = [
                                                di.execs[t].result
                                                for t in owners
                                            ]
                                            raise SimulationInvariantError(
                                                f"merged {di!r} produced "
                                                f"differing results {results!r}"
                                            )
                                pdst = di.pdst
                                reg_value[pdst] = r0
                                reg_ready[pdst] = True
                                rf_writes += 1
                                wl = waiters.pop(pdst, None)
                                if wl is not None:
                                    for m in wl:
                                        wdi = m[2]
                                        if wdi.dead:
                                            continue
                                        n = m[0] - 1
                                        m[0] = n
                                        if n == 0:
                                            ready_list.append((m[1], wdi))
                        di.state = DONE
                        di.complete_cycle = cycle
                        executed_local += 1
                        if di.mispredicted:
                            # _resolve_branch(di), inlined.
                            resume = cycle + mispredict_penalty
                            for u in range(nthreads):
                                if stalled_on_branch[u] is di:
                                    stalled_on_branch[u] = None
                                    if fetch_stall_until[u] < resume:
                                        fetch_stall_until[u] = resume
                            mispred_stall += mispredict_penalty

                # ------------------------------------------ LSQ load phase
                if pending_loads:
                    ports_left = self.ldst_ports_left
                    for di in lsq_entries:
                        if di.state is not WAITING_MEM or not di.inst.is_load:
                            continue
                        mem_pending = di.mem_pending
                        pending = [
                            t for t, r in mem_pending.items() if r is None
                        ]
                        if not pending:
                            if di.mem_done_count == 0 and mem_pending:
                                di.mem_done_count = 1
                                pending_loads -= 1
                                when = max(mem_pending.values())
                                if when < cycle + 1:
                                    when = cycle + 1
                                lst = complete_events.get(when)
                                if lst is None:
                                    complete_events[when] = [di]
                                else:
                                    lst.append(di)
                            continue
                        tid = pending[0]
                        addr = di.execs[tid].addr
                        # _older_store, inlined.
                        bit = 1 << tid
                        best = None
                        blocked = False
                        for entry in lsq_entries:
                            if entry is di:
                                break
                            if not entry.inst.is_store or not entry.itid & bit:
                                continue
                            st = entry.state
                            if st is DECODED or st is WAITING or st is ISSUED:
                                blocked = True
                                break
                            if entry.execs[tid].addr == addr:
                                best = entry
                        if blocked:
                            continue
                        if best is not None:
                            mem_pending[tid] = cycle + 1
                            store_fwd += 1
                        else:
                            if ports_left <= 0:
                                port_stalls += 1
                                break
                            ready = data_access(asids[tid], addr, False, cycle)
                            if ready is None:
                                continue  # MSHR full; another load may hit
                            ports_left -= 1
                            load_acc += 1
                            mem_pending[tid] = (
                                ready if ready > cycle else cycle + 1
                            )
                        if all(
                            r is not None for r in mem_pending.values()
                        ):
                            di.mem_done_count = 1
                            pending_loads -= 1
                            when = max(mem_pending.values())
                            if when < cycle + 1:
                                when = cycle + 1
                            lst = complete_events.get(when)
                            if lst is None:
                                complete_events[when] = [di]
                            else:
                                lst.append(di)
                    self.ldst_ports_left = ports_left

                # -------------------------------------------------- issue
                if ready_list:
                    ready_list.sort()
                    issued = 0
                    alu_slots = num_alu
                    fpu_slots = num_fpu
                    # Compaction is lazy: ``kept`` stays None (and the list
                    # untouched) until the first entry actually leaves, so the
                    # prefix of survivors is one C-level slice, not appends.
                    kept = None
                    n_r = len(ready_list)
                    j = 0
                    while j < n_r:
                        if issued >= issue_width:
                            break
                        item = ready_list[j]
                        j += 1
                        di = item[1]
                        if di.dead:
                            if kept is None:
                                kept = ready_list[: j - 1]
                            continue
                        d_inst = di.inst
                        klass = d_inst.klass
                        is_fpu = klass is FADD or klass is FMUL or klass is FDIV
                        if is_fpu:
                            if fpu_slots <= 0:
                                fu_stalls += 1
                                if kept is not None:
                                    kept.append(item)
                                continue
                            fpu_slots -= 1
                        else:
                            if alu_slots <= 0:
                                fu_stalls += 1
                                if kept is not None:
                                    kept.append(item)
                                continue
                            alu_slots -= 1
                        psrcs = di.psrcs
                        nsrc = len(psrcs)
                        if nsrc == 1:
                            # _verify_sources(di) for the one-source case,
                            # without the values list / zip scaffolding.
                            got = reg_value[psrcs[0]]
                            for u in tof[di.itid]:
                                want = di.execs[u].src_vals[0]
                                if got is want and got == want:
                                    continue
                                if (
                                    isinstance(got, float)
                                    != isinstance(want, float)
                                    or got != want
                                ):
                                    raise SimulationInvariantError(
                                        f"t{u} {di!r}: operand {got!r} "
                                        f"!= oracle {want!r}"
                                    )
                        elif nsrc:
                            # _verify_sources(di), inlined.  Values flow as
                            # the same objects from the oracle records into
                            # the register file, so the identity + equality
                            # short-circuit almost always fires (NaN falls
                            # through to the full reference check).
                            values = [reg_value[p] for p in psrcs]
                            for u in tof[di.itid]:
                                expected = di.execs[u].src_vals
                                for got, want in zip(values, expected):
                                    if got is want and got == want:
                                        continue
                                    if (
                                        isinstance(got, float)
                                        != isinstance(want, float)
                                        or got != want
                                    ):
                                        raise SimulationInvariantError(
                                            f"t{u} {di!r}: operand {got!r} "
                                            f"!= oracle {want!r}"
                                        )
                        rf_reads += nsrc
                        di.state = ISSUED
                        # All latencies are >= 1, so the reference's
                        # next-cycle clamp is a no-op here.
                        when = cycle + d_inst.latency
                        events = (
                            agen_events if d_inst.is_load else complete_events
                        )
                        lst = events.get(when)
                        if lst is None:
                            events[when] = [di]
                        else:
                            lst.append(di)
                        iq.remove(di)
                        if kept is None:
                            kept = ready_list[: j - 1]
                        issued += 1
                        issued_local += 1
                        if is_fpu:
                            issued_fpu_local += 1
                    if kept is not None:
                        if j < n_r:
                            kept.extend(ready_list[j:])
                        ready_list = kept

                # ------------------------------------------------- rename
                width = issue_width
                while width > 0 and decode_buffer:
                    head = decode_buffer[0]
                    if head.dead:
                        decode_buffer.pop(0)
                        continue
                    head_itid = head.itid
                    inst = head.inst
                    if not shared_fetch or popc[head_itid] == 1:
                        pieces = (head,)
                        npieces = 1
                        taint_mask = 0
                    else:
                        op = inst.op
                        if (
                            popc[head_itid] != 2
                            or op is SEND_OP
                            or op is TRECV_OP
                            or op is TID_OP
                        ):
                            pieces, taint_mask = self._split(head)
                            npieces = len(pieces)
                        else:
                            # _split(head), inlined for the dominant
                            # two-thread case: splitter decision via the
                            # pair bit, LVIP consult, provenance flags.
                            srcs = inst.srcs
                            pair = 1 << pb[head_itid]
                            taint_mask = 0
                            if shared_execute:
                                merged = True
                                for r in srcs:
                                    if not rst_bits[r] & pair:
                                        merged = False
                                    taint_mask |= rst_taint[r]
                            else:
                                merged = False
                            is_load = inst.is_load
                            if merged and is_load and not is_mt:
                                lvip_checks_local += 1
                                if lvip_predict(head.pc):
                                    lvip_pred_local += 1
                                else:
                                    merged = False
                            if merged:
                                if register_merging and taint_mask & pair:
                                    head.merged_via_regmerge = True
                                if is_load and not is_mt:
                                    head.lvip_predicted_identical = True
                                pieces = (head,)
                                npieces = 1
                            else:
                                # clone_for(1 << t), inlined (prototype
                                # dict + the fields the clone inherits).
                                h_execs = head.execs
                                h_seq = head.seq
                                h_pc = head.pc
                                h_fmode = head.fetch_mode
                                h_fw = head.fetch_merged_width
                                h_ptk = head.pred_taken
                                h_ptg = head.pred_target
                                h_mp = head.mispredicted
                                h_halt = head.halt
                                pieces = []
                                for t in tof[head_itid]:
                                    piece = new_di(DynInst)
                                    d = di_new()
                                    d["seq"] = h_seq
                                    d["pc"] = h_pc
                                    d["inst"] = inst
                                    d["itid"] = 1 << t
                                    d["execs"] = {t: h_execs[t]}
                                    d["fetch_mode"] = h_fmode
                                    d["fetch_merged_width"] = h_fw
                                    d["psrcs"] = []
                                    d["prev_map"] = {}
                                    d["pred_taken"] = h_ptk
                                    d["pred_target"] = h_ptg
                                    d["mispredicted"] = h_mp
                                    d["halt"] = h_halt
                                    piece.__dict__ = d
                                    pieces.append(piece)
                                npieces = 2
                        if npieces > width:
                            break
                    # _resources_available(pieces), inlined.
                    if len(rob) + npieces > rob_size:
                        stall_rob += 1
                        break
                    elif len(iq) + npieces > iq_size:
                        stall_iq += 1
                        break
                    elif (
                        inst.is_mem
                        and len(lsq_entries) + npieces > lsq_size
                    ):
                        stall_lsq += 1
                        break
                    elif (
                        inst.dst is not None
                        and len(free_pregs) < npieces
                    ):
                        stall_regs += 1
                        break
                    decode_buffer.pop(0)
                    split_in += 1
                    split_out += npieces
                    if npieces > 1:
                        splits_local += 1
                        # _repoint_branch_waiters, inlined.
                        for u in range(nthreads):
                            if stalled_on_branch[u] is head:
                                for piece in pieces:
                                    if piece.itid >> u & 1:
                                        stalled_on_branch[u] = piece
                                        break
                    dst = inst.dst
                    srcs = inst.srcs
                    is_mem = inst.is_mem
                    for piece in pieces:
                        # _rename_one(piece), inlined.
                        p_itid = piece.itid
                        p_owners = tof[p_itid]
                        lead_map = rat_map[p_owners[0]]
                        psrcs = [lead_map[r] for r in srcs]
                        piece.psrcs = psrcs
                        iq_tick += 1
                        pending = 0
                        for preg in psrcs:
                            src_refs[preg] += 1
                            if not reg_ready[preg]:
                                pending += 1
                        if pending == 0:
                            ready_list.append((iq_tick, piece))
                        else:
                            m = [pending, iq_tick, piece]
                            for preg in psrcs:
                                if not reg_ready[preg]:
                                    wl = waiters.get(preg)
                                    if wl is None:
                                        waiters[preg] = [m]
                                    else:
                                        wl.append(m)
                        if dst is not None:
                            # regfile.alloc(map_claims=len(p_owners)), inlined
                            # (the resource check above guarantees free slots;
                            # allocations/high_water flushed in finally).
                            preg = free_pregs.pop()  # simlint: ignore — free list is a list
                            map_refs[preg] = len(p_owners)
                            src_refs[preg] = 0
                            reg_ready[preg] = False
                            reg_value[preg] = None
                            alloc_count += 1
                            nfree = len(free_pregs)
                            if nfree < min_free:
                                min_free = nfree
                            piece.pdst = preg
                            prev_map = piece.prev_map
                            for u in p_owners:
                                row = rat_map[u]
                                prev_map[u] = row[dst]
                                row[dst] = preg
                                no_active_writer[u][dst] = False
                        piece.state = WAITING
                        piece.is_exec_merged = len(p_owners) >= 2
                        rob.append(piece)
                        for u in p_owners:
                            thread_queues[u].append(piece)
                        iq.append(piece)
                        if is_mem:
                            lsq_entries.append(piece)
                        renamed_local += 1
                    if shared_fetch and dst is not None:
                        # rst.update_dest(...), inlined via the pair-mask
                        # tables (pieces partition head_itid, so the
                        # reference's itid argument is head_itid).
                        if npieces == 1:
                            shared_pairs = pw[head_itid]
                        else:
                            shared_pairs = 0
                            for p in pieces:
                                shared_pairs |= pw[p.itid]
                        touched = pt[head_itid]
                        rst_bits[dst] = (rst_bits[dst] & ~touched) | (
                            shared_pairs & touched
                        )
                        rst_taint[dst] = (rst_taint[dst] & ~touched) | (
                            shared_pairs & touched & taint_mask
                        )
                        rst_updates_local += 1
                    width -= npieces

                # -------------------------------------------------- fetch
                if shared_fetch and len(groups) > 1:
                    # _try_remerge, inlined (a no-op with a single group).
                    pcs = {}
                    for group in groups:
                        if not group_stalled(group, cycle):
                            gpc = group_pc(group)
                            if gpc is not None:
                                pcs[group.gid] = gpc
                    sync.check_merges(pcs, cycle)
                budget = fetch_width
                sessions = 0
                if len(groups) == 1:
                    order = [groups[0]]
                elif not catchup_target:
                    # sync.fetch_order, inlined: with no CATCHUP pairs every
                    # rank is 1, so priority is plain (mean ICOUNT, gid).
                    keyed = []
                    for g in groups:
                        total = 0
                        mask = g.mask
                        for t in tof[mask]:
                            total += icount[t]
                        keyed.append((total / popc[mask], g.gid, g))
                    keyed.sort()
                    order = [k[2] for k in keyed]
                else:
                    icounts = {}
                    for g in groups:
                        total = 0
                        for t in tof[g.mask]:
                            total += icount[t]
                        icounts[g.gid] = total / g.size
                    order = sync.fetch_order(icounts)
                held: list[int] = []
                fetched_gids: list[int] = []
                for group in order:
                    if budget <= 0 or sessions >= groups_per_cycle:
                        break
                    gid = group.gid
                    if held and gid in held:
                        continue
                    if catchup_target:
                        stop = False
                        for b, a in catchup_target.items():
                            if a == gid and b in fetched_gids:
                                stop = True
                                break
                        if stop:
                            continue
                    if group_stalled(group, cycle):
                        continue
                    gpc = group_pc(group)
                    if gpc is None:
                        continue
                    # _fetch_group(group, budget), inlined.
                    members = tof[group.mask]
                    nmem = len(members)
                    lead = members[0]
                    # sync.mode_of(group), inlined.
                    if nmem >= 2:
                        if len(groups) > 1 and gid in catchup_target:
                            mode = CATCHUP
                        else:
                            mode = MERGE
                    elif gid in catchup_target:
                        mode = CATCHUP
                    else:
                        mode = DETECT
                    blocks = trace_blocks
                    count = 0
                    first_access = True
                    other_pcs = None
                    if shared_fetch and len(groups) > 1:
                        for other in groups:
                            if other is not group:
                                opc = group_pc(other)
                                if opc is not None:
                                    if other_pcs is None:
                                        other_pcs = {opc: other.gid}
                                    else:
                                        other_pcs[opc] = other.gid
                    r_lead = replay[lead]
                    rl_lead = recs_by_tid[lead]
                    db_room = decode_buffer_size - len(decode_buffer)
                    p_lead = 0
                    rec = None
                    while budget - count > 0:
                        if db_room <= 0:
                            break
                        # _peek_pc(lead), inlined: src 0 = replay queue,
                        # src 1 = buffered record stream, src 2 = live oracle.
                        if r_lead:
                            src = 0
                            fpc = r_lead[0].pc
                        elif fetch_done[lead]:
                            break
                        else:
                            p_lead = pos[lead]
                            if p_lead < len(rl_lead):
                                src = 1
                                rec = rl_lead[p_lead]
                                fpc = rec.pc
                            else:
                                src = 2
                                fpc = states[lead].pc
                        if first_access:
                            lat = fetch_latency(fpc)
                            if lat > l1_latency:
                                stall = cycle + lat
                                for t in members:
                                    fetch_stall_until[t] = stall
                                icache_stall += lat
                                break
                            first_access = False
                        if nmem == 1:
                            if src == 1 and other_pcs is None:
                                # Run-length streaming: consume the buffered
                                # record run with the loop conditions
                                # (budget, decode room, stream bounds)
                                # hoisted out of the per-instruction path.
                                run = budget - count
                                if db_room < run:
                                    run = db_room
                                avail = len(rl_lead) - p_lead
                                if avail < run:
                                    run = avail
                                gmask = group.mask
                                i = 0
                                stop = False
                                while i < run:
                                    rec = rl_lead[p_lead + i]
                                    i += 1
                                    inst = rec.inst
                                    op = inst.op
                                    halted = op is HALT_OPC
                                    seqno += 1
                                    di = new_di(DynInst)
                                    d = di_new()
                                    d["seq"] = seqno
                                    d["pc"] = rec.pc
                                    d["inst"] = inst
                                    d["itid"] = gmask
                                    d["execs"] = {lead: rec}
                                    d["fetch_mode"] = mode
                                    d["fetch_merged_width"] = 1
                                    d["psrcs"] = []
                                    d["prev_map"] = {}
                                    d["halt"] = halted
                                    di.__dict__ = d
                                    decode_buffer.append(di)
                                    icount[lead] += 1
                                    if halted:
                                        fetch_done[lead] = True
                                        sync.on_halt(lead)
                                        stop = True
                                        break
                                    if (
                                        use_hints
                                        and op is HINT_OP
                                        and len(groups) > 1
                                    ):
                                        self._seq = seqno
                                        self._handle_hint(rec.pc, [lead])
                                        stop = True
                                        break
                                    if inst.is_control:
                                        self._seq = seqno
                                        outcome = self._handle_control(
                                            di, group, [lead], {lead: rec}
                                        )
                                        if outcome == "continue":
                                            pass
                                        elif outcome == "taken":
                                            blocks -= 1
                                            if blocks <= 0:
                                                stop = True
                                                break
                                        else:  # "divergence"/"mispredict"
                                            stop = True
                                            break
                                pos[lead] = p_lead + i
                                count += i
                                db_room -= i
                                if stop:
                                    break
                                continue
                            # _next_record(lead), inlined; lockstep trivially
                            # holds for a singleton.
                            if src == 1:
                                pos[lead] = p_lead + 1
                            elif src == 0:
                                rec = r_lead.popleft()
                            else:
                                rec = self._next_record(lead)
                            records = {lead: rec}
                            inst = rec.inst
                        else:
                            # {t: next_record(t)}, inlined per member.
                            records = {}
                            lockstep = True
                            for t in members:
                                r_t = replay[t]
                                if r_t:
                                    rec = r_t.popleft()
                                else:
                                    p_t = pos[t]
                                    rl_t = recs_by_tid[t]
                                    if p_t < len(rl_t):
                                        pos[t] = p_t + 1
                                        rec = rl_t[p_t]
                                    elif stream[t]:
                                        rec = self._next_record(t)
                                    else:
                                        rec = oracles[t].step()
                                if rec.pc != fpc:
                                    lockstep = False
                                records[t] = rec
                            if not lockstep:
                                raise RuntimeError(
                                    f"merged fetch out of lockstep "
                                    f"at pc={fpc}"
                                )
                            inst = records[lead].inst
                        seqno += 1
                        halted = inst.op is HALT_OPC
                        # DynInst(...), constructor inlined via the
                        # prototype dict.
                        di = new_di(DynInst)
                        d = di_new()
                        d["seq"] = seqno
                        d["pc"] = fpc
                        d["inst"] = inst
                        d["itid"] = group.mask
                        d["execs"] = records
                        d["fetch_mode"] = mode
                        d["fetch_merged_width"] = nmem
                        d["psrcs"] = []
                        d["prev_map"] = {}
                        d["halt"] = halted
                        di.__dict__ = d
                        decode_buffer.append(di)
                        db_room -= 1
                        count += 1
                        for t in members:
                            icount[t] += 1
                        if halted:
                            for t in members:
                                fetch_done[t] = True
                                sync.on_halt(t)
                            break
                        if (
                            use_hints
                            and inst.op is HINT_OP
                            and len(sync.groups) > 1
                        ):
                            self._seq = seqno
                            self._handle_hint(fpc, list(members))
                            break
                        if inst.is_control:
                            self._seq = seqno
                            outcome = self._handle_control(
                                di, group, list(members), records
                            )
                            if outcome == "continue":
                                pass
                            elif outcome == "taken":
                                blocks -= 1
                                if blocks <= 0:
                                    break
                            else:  # "divergence" or "mispredict"
                                break
                        if other_pcs is not None:
                            next_pc = peek(lead)
                            if next_pc in other_pcs:
                                held.append(other_pcs[next_pc])
                                break
                    if count:
                        budget -= count
                        sessions += 1
                        f_thread += count * nmem
                        f_entries += count
                        fbm[mode] += count * nmem
                        fetched_gids.append(gid)
                        if trace is not None:
                            trace.append(
                                (
                                    "F",
                                    cycle,
                                    lead,
                                    gpc,
                                    gid,
                                    group.mask,
                                    sync.mode_of(group).value,
                                    count,
                                )
                            )
                f_sessions += sessions

                # Boundary visit: make the sampled SimStats fields current
                # (the finally block flushes additively, so zeroing here is
                # safe) and hand the cycle to the observer — it samples the
                # interval and/or checks watchdog progress, then returns
                # the next boundary.  Everything else an IntervalSample
                # reads (fetched_by_mode, branch counters, FHB, occupancy
                # structures, RST) is already live during the loop.
                if cycle >= next_obs:
                    stats.committed_thread_insts += c_thread
                    stats.committed_entries += c_entries
                    stats.fetched_thread_insts += f_thread
                    stats.fetched_entries += f_entries
                    stats.fetch_sessions += f_sessions
                    c_thread = c_entries = 0
                    f_thread = f_entries = f_sessions = 0
                    stats.cycles = cycle
                    next_obs = obs_tick(self)

            # Normal completion: the reference run() tail, verbatim.
            stats.cycles = cycle
        finally:
            self._seq = seqno
            self._commit_rr = commit_rr
            stats.cycles = self.cycle
            stats.committed_thread_insts += c_thread
            stats.committed_entries += c_entries
            stats.committed_exec_identical += c_exec_ident
            stats.committed_exec_identical_regmerge += c_exec_ident_rm
            stats.committed_fetch_identical += c_fetch_ident
            stats.halted_threads += halted_local
            cpt = stats.committed_per_thread
            for t in range(nthreads):
                if commit_counts[t]:
                    cpt[t] = cpt.get(t, 0) + commit_counts[t]
            stats.executed_entries += executed_local
            stats.regfile_writes += rf_writes
            stats.regfile_reads += rf_reads
            stats.issued_entries += issued_local
            stats.issued_fpu_entries += issued_fpu_local
            stats.fu_contention_stalls += fu_stalls
            stats.fetch_stall_mispredict_cycles += mispred_stall
            stats.load_accesses += load_acc
            stats.store_forwards += store_fwd
            stats.ldst_port_stalls += port_stalls
            stats.renamed_entries += renamed_local
            stats.split_stage_inputs += split_in
            stats.split_stage_outputs += split_out
            stats.splits_performed += splits_local
            stats.rename_stalls_rob += stall_rob
            stats.rename_stalls_iq += stall_iq
            stats.rename_stalls_lsq += stall_lsq
            stats.rename_stalls_regs += stall_regs
            stats.lvip_checks += lvip_checks_local
            stats.lvip_predict_identical += lvip_pred_local
            rst.updates += rst_updates_local
            stats.fetched_thread_insts += f_thread
            stats.fetched_entries += f_entries
            stats.fetch_sessions += f_sessions
            stats.icache_stall_cycles += icache_stall
            if alloc_count:
                regfile.allocations += alloc_count
                in_use = num_regs_total - min_free
                if in_use > regfile.high_water:
                    regfile.high_water = in_use

        if obs_active:
            # Reference run() order: finalize (closing the last partial
            # interval against the now-flushed stats) before the
            # end-of-run snapshots below.
            obs.finalize(self)
        stats.lvip_site_checks = dict(self.lvip.site_checks)
        stats.lvip_site_mispredicts = dict(self.lvip.site_mispredicts)
        if shared_fetch:
            stats.final_rst_sharing = rst.sharing_fraction(nthreads)
        self._final_checks()
        return stats


#: Engine registry used by the harness/CLI ``engine=`` selector.
ENGINES: dict[str, type[SMTCore]] = {
    "reference": SMTCore,
    "fast": FastSMTCore,
}


def resolve_engine(name: str) -> type[SMTCore]:
    """Map an engine name to its core class (raises on unknown names)."""
    try:
        return ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}: expected one of {sorted(ENGINES)}"
        ) from None
