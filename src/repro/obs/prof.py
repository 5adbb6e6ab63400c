"""Host self-profiler: where do the remaining host-microseconds go?

The fast engine's cost model is "one monolithic loop plus a handful of
reference-delegated rare paths" — so the question ROADMAP item 1 (the
compiled kernel) needs answered is exactly *how much wall-clock is spent
in the loop's own bytecode vs. each delegated path*.  The
:class:`HostProfiler` answers it without touching the simulator:

* it wraps the six delegated rare paths (split, LVIP verify, control,
  hints, store commit, squash) and the oracle refill on one core
  instance, timing each call with :func:`time.perf_counter`;
* attribution is **exclusive** (self-time): a delegated path that calls
  another wrapped path — LVIP verify invoking squash, say — only keeps
  the time it spent itself;
* everything not inside a wrapped region is the **residual**: the fast
  loop's own bytecode (or, on the reference engine, the staged step
  machinery).

Wrapping is per-instance monkey-patching (plus one module global for
``squash_thread``), so a profiled core runs bit-identically — the wrapped
functions *are* the originals — just slower by the timer overhead.
Attach before ``run()`` to profile the whole run.

This module lives in ``repro.obs`` deliberately: the determinism lint of
``repro selfcheck`` (rule SIM001) bans wall-clock calls inside the
simulator packages, and host-side profiling is exactly the measurement
layer that ban protects.
"""

from __future__ import annotations

import time
from pathlib import Path

__all__ = ["HostProfiler", "PROFILE_REGIONS"]

#: (region label, core attribute) for the instance-patched rare paths.
PROFILE_REGIONS = (
    ("split", "_split"),
    ("lvip_verify", "_verify_lvip"),
    ("control", "_handle_control"),
    ("hints", "_handle_hint"),
    ("oracle_refill", "_refill"),
)

#: Region label for the fast loop's own (unattributed) time.
RESIDUAL_REGION = "fast_loop"


class HostProfiler:
    """Wall-clock attribution across a core's reference-delegated paths.

    Usage::

        prof = HostProfiler()
        stats = prof.run(core)          # attach -> core.run() -> detach
        for row in prof.report_rows():  # sorted, with the residual row
            ...

    ``attach``/``detach`` are exposed separately for callers that manage
    the run themselves.  One profiler instance profiles one run; create a
    fresh one per measurement.
    """

    def __init__(self, record_slices: bool = False, max_slices: int = 100_000):
        #: Exclusive (self) seconds per region.
        self.totals: dict[str, float] = {}
        #: Invocation count per region.
        self.counts: dict[str, int] = {}
        #: Total wall seconds of the profiled ``run()`` (set by :meth:`run`).
        self.total_wall: float = 0.0
        self.max_slices = max_slices
        self._slices: list[tuple[str, float, float]] | None = (
            [] if record_slices else None
        )
        self._stack: list[list[float]] = []
        self._core = None
        self._saved_module_squash = None
        self._origin: float | None = None

    # ----------------------------------------------------------- wrapping
    def _wrap(self, region: str, fn):
        perf = time.perf_counter
        stack = self._stack
        totals = self.totals
        counts = self.counts
        slices = self._slices

        def wrapper(*args, **kwargs):
            frame = [perf(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - frame[0]
                # Exclusive attribution: hand inclusive time up to the
                # enclosing wrapped frame, keep only our own.
                totals[region] = totals.get(region, 0.0) + elapsed - frame[1]
                counts[region] = counts.get(region, 0) + 1
                if stack:
                    stack[-1][1] += elapsed
                if slices is not None and len(slices) < self.max_slices:
                    slices.append((region, frame[0], end))

        return wrapper

    def attach(self, core) -> None:
        """Instrument *core* in place (call before ``core.run()``)."""
        if self._core is not None:
            raise RuntimeError("HostProfiler is already attached")
        self._core = core
        for region, attr in PROFILE_REGIONS:
            setattr(core, attr, self._wrap(region, getattr(core, attr)))
        core.lsq.try_commit_store = self._wrap(
            "store_commit", core.lsq.try_commit_store
        )
        # squash_thread is called as a module global from the issue stage
        # (the LVIP mispredict path), not through the core — patch it at
        # its one resolution site and restore on detach.
        from repro.pipeline import issue_stage

        self._saved_module_squash = issue_stage.squash_thread
        issue_stage.squash_thread = self._wrap(
            "squash", issue_stage.squash_thread
        )

    def detach(self) -> None:
        """Remove the instrumentation, restoring the original methods."""
        core = self._core
        if core is None:
            return
        for _region, attr in PROFILE_REGIONS:
            if attr in core.__dict__:
                delattr(core, attr)
        if "try_commit_store" in core.lsq.__dict__:
            del core.lsq.try_commit_store
        from repro.pipeline import issue_stage

        if self._saved_module_squash is not None:
            issue_stage.squash_thread = self._saved_module_squash
            self._saved_module_squash = None
        self._core = None

    # ---------------------------------------------------------------- run
    def run(self, core):
        """Profile one full ``core.run()``; returns its ``SimStats``."""
        perf = time.perf_counter
        self.attach(core)
        self._origin = perf()
        try:
            stats = core.run()
        finally:
            self.total_wall = perf() - self._origin
            self.detach()
        return stats

    # ------------------------------------------------------------ reports
    def residual(self) -> float:
        """Seconds not attributed to any wrapped region (the loop itself)."""
        return max(0.0, self.total_wall - sum(self.totals.values()))

    def report_rows(self) -> list[dict]:
        """Breakdown rows (region, calls, self_s, share), largest first.

        Includes a synthetic ``fast_loop`` residual row when
        :meth:`run` measured a total wall time.
        """
        rows = [
            {
                "region": region,
                "calls": self.counts.get(region, 0),
                "self_s": seconds,
                "share": seconds / self.total_wall if self.total_wall else 0.0,
            }
            for region, seconds in self.totals.items()
        ]
        if self.total_wall:
            residual = self.residual()
            rows.append(
                {
                    "region": RESIDUAL_REGION,
                    "calls": 1,
                    "self_s": residual,
                    "share": residual / self.total_wall,
                }
            )
        rows.sort(key=lambda row: row["self_s"], reverse=True)
        return rows

    def as_dict(self) -> dict:
        """JSON-ready summary (CLI ``--json`` export)."""
        return {
            "total_wall_s": self.total_wall,
            "residual_s": self.residual(),
            "regions": self.report_rows(),
        }

    # ----------------------------------------------------- Perfetto export
    def chrome_trace(self) -> dict:
        """Recorded slices as a Chrome/Perfetto trace document.

        Requires ``record_slices=True``; region invocations become ``"X"``
        complete events (host microseconds on the time axis).
        """
        if self._slices is None:
            raise ValueError(
                "profiler was constructed without record_slices=True"
            )
        origin = self._origin
        if origin is None:
            origin = min((start for _r, start, _e in self._slices), default=0.0)
        rows = [
            {
                "name": region,
                "cat": "host",
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
            }
            for region, start, end in self._slices
        ]
        return {
            "traceEvents": rows,
            "displayTimeUnit": "ms",
            "otherData": {
                "source": "repro host self-profiler",
                "time_unit": "1 ts = 1 host microsecond",
            },
        }

    def write_chrome_trace(self, path) -> Path:
        """Write :meth:`chrome_trace` as JSON to *path*."""
        import json

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()) + "\n")
        return path
