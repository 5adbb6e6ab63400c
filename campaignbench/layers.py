"""Layer tracing for the campaign benchmark, installed from outside.

:func:`install` wraps each layer's public callables in place — module
globals the harness resolves at call time, and methods on the core
classes — so the program under test carries no tracing code of its own.
It must run in the campaign's driver process *before* ``run_points``:
workers are forked from that process and inherit the wrappers.

Two kinds of record share one stack of open frames:

* **spans** (``keep=True``): one record per call holding the name, start,
  end, parent span and point label.  They are used for calls that happen
  a few times per point (keying, cache I/O, workload builds, a core's
  construction and run).
* **regions** (``keep=False``): per-call wrappers that only add to
  per-name totals.  Pipeline stages run every simulated cycle — a span
  per call would be millions of records — so they are aggregated in
  place.

Every frame hands its inclusive duration to the frame that encloses it,
so each name's *self* time is its duration minus the time its child
frames cover; the self times of all names partition the traced wall.
Spans stay in memory; worker-side records ride back on the simulation
payload (``RunResult.bench_trace``) and are detached again before the
payload reaches the result cache, so cache entries and their sizes are
what an untraced run writes.
"""

from __future__ import annotations

import functools
import time

#: Attribute carrying a worker's trace on its payload between the
#: worker's return and the parent's cache store.
TRACE_ATTR = "bench_trace"

#: Reference-engine stage methods timed as regions, by metric stem.
STAGES = (
    ("pipeline.fetch", "fetch_stage"),
    ("pipeline.rename", "rename_stage"),
    ("pipeline.issue", "issue_stage"),
    ("pipeline.writeback", "writeback_stage"),
    ("pipeline.commit", "commit_stage"),
)


class Tracer:
    """In-memory span and region recorder for one process."""

    def __init__(self) -> None:
        #: [name, start, end, parent span index, point label]
        self.spans: list[list] = []
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.label = ""
        # Open frames, [start, seconds covered by children]; wrappers
        # hold these two lists, so they are only ever cleared in place.
        self._frames: list[list[float]] = []
        self._open_spans: list[int] = []

    def reset(self, label: str) -> None:
        """Forget everything (a forked worker starts from its parent's
        copy, open frames included) and label the spans that follow."""
        self.spans = []
        self.self_s = {}
        self.incl_s = {}
        self.calls = {}
        self.label = label
        self._frames.clear()
        self._open_spans.clear()

    def wrap(self, name: str, fn, *, keep: bool = True, label_of=None):
        """*fn* timed under *name*; ``label_of(args)`` names the point a
        span belongs to (default: the tracer's current label)."""
        perf = time.perf_counter
        frames = self._frames
        open_spans = self._open_spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = -1
            if keep:
                spans = self.spans
                index = len(spans)
                spans.append([
                    name, 0.0, 0.0,
                    open_spans[-1] if open_spans else -1,
                    label_of(args) if label_of else self.label,
                ])
                open_spans.append(index)
            frame = [perf(), 0.0]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                frames.pop()
                elapsed = end - frame[0]
                self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - frame[1]
                self.incl_s[name] = self.incl_s.get(name, 0.0) + elapsed
                self.calls[name] = self.calls.get(name, 0) + 1
                if frames:
                    frames[-1][1] += elapsed
                if keep:
                    open_spans.pop()
                    self.spans[index][1] = frame[0]
                    self.spans[index][2] = end

        return wrapper

    def add(self, name: str, seconds: float, calls: int) -> None:
        """Fold a region measured by someone else into the totals, as a
        child of the innermost open frame."""
        self.self_s[name] = self.self_s.get(name, 0.0) + seconds
        self.incl_s[name] = self.incl_s.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + calls
        if self._frames:
            self._frames[-1][1] += seconds

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "self_s": self.self_s,
            "incl_s": self.incl_s,
            "calls": self.calls,
        }


def install(tracer: Tracer) -> dict:
    """Wrap every traced layer; returns the parent-side side channels:
    ``worker`` (cache key -> the worker trace of that point) and
    ``entry_bytes`` (sizes of the cache entries stored or loaded)."""
    from repro.analysis import lint, redundancy
    from repro.harness import campaign, experiment
    from repro.obs.prof import HostProfiler
    from repro.pipeline import fast
    from repro.pipeline.lsq import LoadStoreQueue
    from repro.pipeline.smt import SMTCore

    wrap = tracer.wrap
    side: dict = {"worker": {}, "entry_bytes": []}

    # --- parent: harness.experiment / harness.campaign
    experiment.run_campaign = wrap("campaign.dispatch", experiment.run_campaign)
    experiment.lint_campaign_jobs = wrap(
        "experiment.lint", experiment.lint_campaign_jobs
    )
    experiment.validate_campaign_result = wrap(
        "experiment.validate", experiment.validate_campaign_result
    )
    campaign.job_key = wrap(
        "campaign.key", campaign.job_key, label_of=lambda a: a[0].label()
    )

    def by_key(args):  # (cache, key, ...)
        return args[1]

    load = wrap("campaign.cache_load", campaign.ResultCache.load, label_of=by_key)
    store = wrap(
        "campaign.cache_store", campaign.ResultCache.store, label_of=by_key
    )

    def traced_load(cache, key):
        entry = load(cache, key)
        if entry is not None:
            side["entry_bytes"].append(cache.path_for(key).stat().st_size)
        return entry

    def traced_store(cache, key, entry):
        payload = entry.get("payload") if isinstance(entry, dict) else None
        trace = getattr(payload, TRACE_ATTR, None)
        if trace is not None:
            delattr(payload, TRACE_ATTR)
            side["worker"][key] = trace
        path = store(cache, key, entry)
        side["entry_bytes"].append(path.stat().st_size)
        return path

    campaign.ResultCache.load = traced_load
    campaign.ResultCache.store = traced_store

    # --- workloads, analysis, power (both sides of the fork)
    experiment.build_point = wrap(
        "workloads.build", experiment.build_point,
        label_of=lambda a: f"{a[0]}/{a[1]}t",
    )
    lint.lint_program = wrap("analysis.lint", lint.lint_program)
    redundancy.analyze_program = wrap(
        "analysis.oracle", redundancy.analyze_program
    )
    fast.analyze_specialization = wrap(
        "analysis.specialize", fast.analyze_specialization
    )
    experiment.energy_of_run = wrap("power.energy", experiment.energy_of_run)

    # --- pipeline: core construction (both engines), the reference run
    # and its per-cycle stage regions
    for cls in (SMTCore, fast.FastSMTCore):
        cls.__init__ = wrap("pipeline.construct", cls.__init__, keep=False)
    SMTCore.run = wrap("pipeline.run", SMTCore.run)
    SMTCore.step = wrap("pipeline.step_other", SMTCore.step, keep=False)
    for stem, attr in STAGES:
        setattr(SMTCore, attr, wrap(stem, getattr(SMTCore, attr), keep=False))
    LoadStoreQueue.process_loads = wrap(
        "pipeline.lsq", LoadStoreQueue.process_loads, keep=False
    )

    # --- pipeline.fast: the run, split by HostProfiler's rare-path regions
    fast_run = fast.FastSMTCore.run

    def profiled_run(core):
        prof = HostProfiler()
        prof.attach(core)
        started = time.perf_counter()
        try:
            return fast_run(core)
        finally:
            prof.total_wall = time.perf_counter() - started
            prof.detach()
            for region, seconds in prof.totals.items():
                tracer.add(f"fast.{region}", seconds, prof.counts[region])
            tracer.add("fast.loop", prof.residual(), 1)

    fast.FastSMTCore.run = wrap("fast.run", profiled_run)

    # --- worker entry: fresh records per point, shipped on the payload
    simulate = wrap("experiment.simulate", experiment.simulate_job)

    @functools.wraps(experiment.simulate_job)  # same runner id, same keys
    def traced_simulate_job(job, seed):
        tracer.reset(job.label())
        payload = simulate(job, seed)
        setattr(payload, TRACE_ATTR, tracer.export())
        return payload

    experiment.simulate_job = traced_simulate_job
    return side
