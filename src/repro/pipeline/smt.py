"""The SMT/MMT core: construction, reset, and the per-cycle loop.

:class:`SMTCore` composes the stage mixins into the paper's machine:

* ``Base``     — a traditional SMT (sync controller disabled, no ITIDs);
* ``MMT-F``    — merged fetch, always split at the splitter;
* ``MMT-FX``   — merged fetch + RST-driven merged execution;
* ``MMT-FXR``  — MMT-FX + commit-time register merging;
* ``Limit``    — MMT-FXR over identical cloned contexts.

The machine is *value-accurate*: physical registers hold real values and a
per-thread functional oracle provides the correct-path stream (stepped at
fetch, or run ahead in batches for contexts that cannot interact).  Every
issue and writeback is checked against the oracle, so an incorrect merge
anywhere in the MMT machinery raises :class:`SimulationInvariantError`
instead of silently producing wrong timing.
"""

from __future__ import annotations

import gc
from collections import deque
from collections.abc import Iterator
from contextlib import contextmanager

from repro.branch.btb import BTB
from repro.branch.predictor import TwoLevelPredictor
from repro.branch.ras import ReturnAddressStack
from repro.branch.trace_cache import TraceCacheModel
from repro.core.config import MMTConfig, WorkloadType
from repro.core.itid import MAX_THREADS
from repro.core.lvip import LoadValuesIdenticalPredictor
from repro.core.regmerge import RegisterMergeUnit
from repro.core.rst import RegisterSharingTable
from repro.core.sync import SyncController
from repro.func.executor import Executed
from repro.func.fastexec import FastExecutor, decode_program
from repro.isa.registers import NUM_ARCH_REGS
from repro.mem.hierarchy import MemoryHierarchy
from repro.obs.observer import NULL_OBS, Observer
from repro.pipeline.commit_stage import CommitStageMixin
from repro.pipeline.config import MachineConfig
from repro.pipeline.dyninst import DynInst
from repro.pipeline.fetch_stage import FetchStageMixin
from repro.pipeline.issue_stage import IssueStageMixin, SimulationInvariantError
from repro.pipeline.job import Job
from repro.pipeline.lsq import LoadStoreQueue
from repro.pipeline.rat import RegisterAliasTable
from repro.pipeline.regfile import PhysRegFile
from repro.pipeline.rename_stage import RenameStageMixin
from repro.pipeline.stats import SimStats

__all__ = ["SMTCore", "SimulationInvariantError", "gc_paused"]


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for a simulation run.

    The timing loop allocates heavily (entries, records, event lists) but
    creates no cycles the collector could reclaim mid-run, so its
    generation-0 scans are pure overhead.  The caller's setting is
    restored on every exit, including an exception.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class SMTCore(
    FetchStageMixin, RenameStageMixin, IssueStageMixin, CommitStageMixin
):
    """Cycle-level SMT processor with the MMT extensions."""

    def __init__(
        self,
        machine: MachineConfig,
        mmt: MMTConfig,
        job: Job,
        warm_caches: bool = True,
        obs: Observer | None = None,
    ) -> None:
        if job.num_contexts > machine.num_threads:
            raise ValueError(
                f"job has {job.num_contexts} contexts but the machine only "
                f"{machine.num_threads} hardware threads"
            )
        if job.num_contexts > MAX_THREADS:
            raise ValueError(f"at most {MAX_THREADS} hardware threads")
        self.config = machine
        self.mmt = mmt
        self.job = job
        self.num_threads = job.num_contexts

        # Substrates.
        self.hierarchy = MemoryHierarchy(machine.memory)
        self.bpred = TwoLevelPredictor(
            machine.bpred_pht_entries,
            machine.bpred_history_length,
            self.num_threads,
        )
        self.btb = BTB(machine.btb_entries)
        self.ras = [
            ReturnAddressStack(machine.ras_depth) for _ in range(self.num_threads)
        ]
        self.trace_model = TraceCacheModel(
            machine.trace_cache_enabled, machine.trace_cache_blocks
        )

        # MMT structures.
        if job.wtype is WorkloadType.MULTI_THREADED:
            self.rst = RegisterSharingTable.for_multi_threaded()
        else:
            self.rst = RegisterSharingTable.for_multi_execution()
        self.lvip = LoadValuesIdenticalPredictor(mmt.lvip_entries)
        self.regmerge = RegisterMergeUnit(self.num_threads, mmt.merge_read_ports)
        self.sync = SyncController(
            self.num_threads,
            fhb_size=mmt.fhb_size,
            enabled=mmt.shared_fetch,
            max_catchup_branches=mmt.max_catchup_branches,
        )

        # Contexts and oracles: pre-decoded executors, one dispatch table
        # per distinct program shared by every context that runs it.
        self.states = job.make_states()
        ops_by_program: dict[int, list] = {}
        self.oracles = []
        for state in self.states:
            key = id(state.program.instructions)
            ops = ops_by_program.get(key)
            if ops is None:
                ops = ops_by_program[key] = decode_program(state.program)
            self.oracles.append(FastExecutor(state, ops=ops))
        self.asids = [space.asid for space in job.address_spaces]

        # Functional-first streaming: a context whose oracle cannot
        # interact with another mid-run has it run ahead in batches, and
        # fetch replays the buffered records (see ``_refill``).  Message
        # channels and shared address spaces (multi-threaded workloads)
        # need fetch-order stepping.
        spaces = job.address_spaces
        eligible = job.channels is None and (
            self.num_threads == 1
            or len({id(s) for s in spaces}) == len(spaces)
        )
        self._stream = [eligible] * self.num_threads
        self._recs: list[list[Executed]] = [[] for _ in range(self.num_threads)]
        self._pos = [0] * self.num_threads

        # Rename state.
        self.regfile = PhysRegFile(machine.phys_regs)
        self.rat = RegisterAliasTable(self.num_threads)
        self._install_initial_mappings()

        # Window structures.
        self.rob: list[DynInst] = []
        self.iq: list[DynInst] = []
        self.lsq = LoadStoreQueue(machine.lsq_size)
        self.decode_buffer: list[DynInst] = []
        self.thread_queues = [deque() for _ in range(self.num_threads)]

        # Per-thread fetch state.  The machine's start delays model
        # scheduling skew (§4.4: the OS should gang-schedule MMT threads;
        # this knob measures what imperfect gang scheduling costs).
        self.replay = [deque() for _ in range(self.num_threads)]
        start_delays = machine.start_delays
        if start_delays and len(start_delays) != self.num_threads:
            raise ValueError("one start delay per context required")
        self.fetch_stall_until = list(start_delays or [0] * self.num_threads)
        self.stalled_on_branch: list[DynInst | None] = [None] * self.num_threads
        self.fetch_done = [False] * self.num_threads
        self.finished = [False] * self.num_threads
        self.icount = [0] * self.num_threads

        # Event wheels.
        self._agen_events: dict[int, list[DynInst]] = {}
        self._complete_events: dict[int, list[DynInst]] = {}
        # Software remerge hints: hint PC -> (parked member tids, deadline).
        self._hint_parked: dict[int, tuple[list[int], int]] = {}

        if start_delays and mmt.shared_fetch:
            # Delayed threads cannot fetch in lockstep with on-time ones:
            # they start isolated and resynchronize through the normal
            # FHB/PC-equality machinery once they are running.
            for tid, delay in enumerate(start_delays):
                if delay > 0:
                    self.sync.isolate(tid)

        self.cycle = 0
        self._seq = 0
        self._commit_rr = 0
        self.ldst_ports_left = machine.ldst_ports
        self.stats = SimStats()
        if warm_caches:
            self._warm_caches()
        # Observability: attached after warming so warm-up accesses (whose
        # counters are reset anyway) never reach the sink.
        self.obs = obs or NULL_OBS
        self.sync.obs = self.obs
        self.hierarchy.obs = self.obs

    def _warm_caches(self) -> None:
        """Pre-touch program text and initial data images.

        The paper simulates regions of long-running benchmarks (hundreds of
        millions of instructions), where cold compulsory misses are noise;
        our synthetic workloads are short, so we model the warmed steady
        state explicitly.  Warming happens before statistics matter — the
        cache counters are reset afterwards so energy accounting only sees
        real activity.
        """
        from repro.isa.program import INST_BYTES

        line = self.config.memory.line_bytes
        l2 = self.hierarchy.l2
        for program in {id(p): p for p in self.job.programs}.values():
            for byte in range(0, len(program) * INST_BYTES, line):
                key = self.hierarchy.l1i.line_key(0, byte)
                self.hierarchy.l1i.access(key)
                l2.access(key)
            break  # identical text across contexts; one pass warms the PCs
        # Data warms into the L2 only: a long-running workload's working set
        # lives in the L2 at steady state, while L1 contents churn — first
        # touches and capacity misses in the L1 are real, DRAM cold misses
        # are not.  Consecutive words mostly share a line; touching the
        # line just made MRU again changes no LRU state (and the counters
        # are reset below), so those repeats are skipped.
        seen = set()
        for space in self.job.address_spaces:
            if id(space) in seen:
                continue
            seen.add(id(space))
            asid = space.asid
            last = None
            for addr in space.snapshot():
                key = l2.line_key(asid, addr)
                if key != last:
                    l2.access(key)
                    last = key
        for cache in (self.hierarchy.l1i, self.hierarchy.l1d, self.hierarchy.l2):
            cache.stats.accesses = 0
            cache.stats.hits = 0
            cache.stats.misses = 0
            cache.stats.writebacks = 0
        self.hierarchy.dram_accesses = 0

    # ------------------------------------------------------------------ init
    def _install_initial_mappings(self) -> None:
        """Map the initial architectural state into physical registers.

        With shared execution, registers whose initial values are identical
        across contexts share one physical register (paper §4.2.6: in a
        multi-execution workload all architected registers start mapped to
        the same physical registers; multi-threaded workloads differ only
        in the stack pointer).  Otherwise each context gets its own copy.
        """
        share_initial = self.mmt.shared_execute and self.num_threads > 1
        for arch in range(NUM_ARCH_REGS):
            values = [state.regs[arch] for state in self.states]
            identical = all(v == values[0] for v in values[1:])
            if share_initial and identical:
                preg = self.regfile.alloc(map_claims=self.num_threads)
                self.regfile.set_initial(preg, values[0])
                for tid in range(self.num_threads):
                    self.rat.set(tid, arch, preg)
            else:
                for tid in range(self.num_threads):
                    preg = self.regfile.alloc(map_claims=1)
                    self.regfile.set_initial(preg, values[tid])
                    self.rat.set(tid, arch, preg)
                if self.mmt.shared_fetch:
                    # Distinct physical registers: the RST may still mark
                    # the values identical when they are (value semantics).
                    for t in range(self.num_threads):
                        for u in range(t + 1, self.num_threads):
                            self.rst.set_pair(arch, t, u, identical)

    # ------------------------------------------------------------------ run
    def done(self) -> bool:
        """All contexts have committed their HALT."""
        return all(self.finished)

    def step(self) -> None:
        """Advance the machine one clock cycle.

        Each stage runs through its attribute, so per-stage wrappers (the
        campaign benchmark's tracer) see one call per stage per cycle.
        """
        self.cycle = cycle = self.cycle + 1
        obs = self.obs
        if obs.active:
            obs.begin_cycle(cycle)
        self.hierarchy.tick(cycle)
        self.regmerge.new_cycle()
        self.ldst_ports_left = self.config.ldst_ports
        self.commit_stage()
        self.writeback_stage()
        self.lsq.process_loads(self)
        self.issue_stage()
        self.rename_stage()
        self.fetch_stage()
        self.stats.cycles = cycle
        if obs.active:
            # Interval sampling plus the no-forward-progress watchdog
            # (raises WatchdogError on livelock, with a flight dump).
            obs.end_cycle(self)

    def run(self) -> SimStats:
        """Run to completion; returns the statistics object."""
        limit = self.config.max_cycles
        finished = self.finished
        with gc_paused():
            while not all(finished):
                if self.cycle >= limit:
                    raise RuntimeError(
                        f"simulation exceeded {limit} cycles "
                        f"(finished={finished}, cycle={self.cycle})"
                    )
                self.step()
        if self.obs.active:
            self.obs.finalize(self)
        # Snapshot predictor-local and RST-local state into the stats
        # object so post-hoc validation (campaign aggregation) can run
        # without the live core.
        self.stats.lvip_site_checks = dict(self.lvip.site_checks)
        self.stats.lvip_site_mispredicts = dict(self.lvip.site_mispredicts)
        if self.mmt.shared_fetch:
            # The RST only tracks values when merged fetch runs it (its
            # update sites are all gated on shared_fetch); under Base the
            # table is frozen at its initial state and its "sharing
            # fraction" is not an observation worth validating.
            self.stats.final_rst_sharing = self.rst.sharing_fraction(
                self.num_threads
            )
        self._final_checks()
        return self.stats

    def _final_checks(self) -> None:
        """End-of-run invariants: empty window, consistent refcounts."""
        if self.rob or self.iq or self.lsq.entries or self.decode_buffer:
            raise SimulationInvariantError("machine finished with work in flight")
        for tid in range(self.num_threads):
            if not self.states[tid].halted:
                raise SimulationInvariantError(f"context {tid} never halted")
        self.stats.validate()
