"""``repro.obs`` — observability for the MMT simulator and its harness.

Simulation-side layers, all optional and all off by default:

* **Structured event tracing** — typed :class:`TraceEvent` records emitted
  from every pipeline stage, the sync FSM, and the memory hierarchy into a
  pluggable sink;
* **Interval metrics** — periodic delta snapshots (IPC, fetch-mode share,
  occupancies, FHB hit rate, RST sharing) whose sums reconcile exactly
  with the final :class:`~repro.pipeline.stats.SimStats`;
* **Flight recorder + watchdog** — a bounded ring of recent events and a
  no-forward-progress watchdog that turns hung runs into diagnosable JSON
  dumps;
* **Sampled telemetry** — :class:`SampledObserver`, the lightweight
  contract the fast engine honours natively (interval metrics, recorder,
  watchdog — no event sink) without dropping back to the reference loop.

Host-side layers (wall-clock is fair game here — the determinism lint
only bans it inside the simulator packages):

* **Host self-profiler** — :class:`HostProfiler`, exclusive wall-clock
  attribution across the fast engine's reference-delegated rare paths;
* **Campaign run-log** — :class:`RunLog`, a flushed JSONL lifecycle log
  per campaign.

Attach an :class:`Observer` (or :class:`SampledObserver`) to a core via
its ``obs`` argument; export collected events with
:func:`~repro.obs.export.write_chrome_trace` for Perfetto.

The module also carries the per-process failure-dump path used by campaign
workers: the parent chooses the path per job, the worker stores it here,
and the simulation runner writes the flight-recorder dump to it when the
run dies.
"""

from __future__ import annotations

from repro.obs.events import EventKind, TraceEvent
from repro.obs.export import (
    chrome_trace,
    load_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.interval import IntervalMetrics, IntervalSample
from repro.obs.observer import NULL_OBS, Observer, campaign_observer
from repro.obs.prof import HostProfiler
from repro.obs.runlog import RunLog
from repro.obs.sampling import SampledObserver
from repro.obs.recorder import (
    DEFAULT_WATCHDOG_CYCLES,
    FlightRecorder,
    WatchdogError,
    core_snapshot,
    load_dump,
    write_dump,
)
from repro.obs.sink import MemorySink

__all__ = [
    "DEFAULT_WATCHDOG_CYCLES",
    "EventKind",
    "FlightRecorder",
    "HostProfiler",
    "IntervalMetrics",
    "IntervalSample",
    "MemorySink",
    "NULL_OBS",
    "Observer",
    "RunLog",
    "SampledObserver",
    "TraceEvent",
    "WatchdogError",
    "campaign_observer",
    "chrome_trace",
    "core_snapshot",
    "get_failure_dump_path",
    "load_chrome_trace",
    "load_dump",
    "set_failure_dump_path",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_dump",
]

#: Per-process failure-dump destination (campaign workers only).
_FAILURE_DUMP_PATH: str | None = None


def set_failure_dump_path(path: str | None) -> None:
    """Set where this process should write a flight dump on failure."""
    global _FAILURE_DUMP_PATH
    _FAILURE_DUMP_PATH = path


def get_failure_dump_path() -> str | None:
    """The failure-dump path for this process, or None."""
    return _FAILURE_DUMP_PATH
