"""Fast-engine benchmark: reference vs fast wall-clock on the fig5a sweep.

The benchmark measures ``core.run()`` wall-clock for the *same* simulation
point on both engines — workload construction, oracle decoding, and
result bookkeeping are excluded from both sides, so the ratio isolates
the engine.  Each measured point also asserts bit-identical final
statistics, because a fast number from a wrong simulation is worthless.

Results append to a ``BENCH_fastpath.json`` trajectory (one record per
recorded sweep, newest last) so regressions of the fast path show up as
a falling ``aggregate_speedup`` across commits; the CI gate fails when
the measured aggregate drops below a pinned threshold (see
``benchmarks/bench_fastpath.py``).
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

from repro.core.config import MMTConfig
from repro.pipeline.config import MachineConfig
from repro.pipeline.fast import resolve_engine
from repro.workloads.generator import build_workload
from repro.workloads.profiles import get_profile

#: The fig5a sweep: two hardware threads, Base plus every paper config.
FIG5A_THREADS = 2
FIG5A_CONFIGS = (
    MMTConfig.base,
    MMTConfig.mmt_f,
    MMTConfig.mmt_fx,
    MMTConfig.mmt_fxr,
    MMTConfig.limit,
)

#: Smoke subset used by the CI gate (full sweep: pass apps=None).
SMOKE_APPS = ("ammp", "mcf", "lu", "fft")

#: Minimum fast/reference aggregate speedup the CI gate enforces.  Pinned
#: at about 0.6 of the ~2.0x record so shared-runner noise could not
#: flake the gate, while still catching any change that de-optimises the
#: fast loop outright.  The faster staged core has since brought the
#: record to 1.37x, close to this floor (ROADMAP item 4(c) decides what
#: follows; the floor is not lowered to make room).
PINNED_MIN_SPEEDUP = 1.2

DEFAULT_TRAJECTORY = Path(__file__).resolve().parents[3] / "BENCH_fastpath.json"


def _measure_point(app: str, config: MMTConfig, threads: int, scale: float):
    """One (app, config) point on both engines; returns the row dict."""
    build = build_workload(get_profile(app), threads, scale=scale)
    machine = MachineConfig(num_threads=threads)
    results = {}
    for engine in ("reference", "fast"):
        job = build.limit_job() if config.limit_identical else build.job()
        core = resolve_engine(engine)(machine, config, job)
        start = time.perf_counter()
        stats = core.run()
        wall = time.perf_counter() - start
        results[engine] = (wall, stats)
    ref_wall, ref_stats = results["reference"]
    fast_wall, fast_stats = results["fast"]
    if fast_stats.__dict__ != ref_stats.__dict__:
        raise AssertionError(
            f"{app}/{config.name}: fast engine diverged from reference — "
            f"benchmark aborted (a fast wrong answer is not a speedup)"
        )
    insts = ref_stats.committed_thread_insts
    return {
        "app": app,
        "config": config.name,
        "threads": threads,
        "committed_insts": insts,
        "cycles": ref_stats.cycles,
        "reference_wall_s": round(ref_wall, 4),
        "fast_wall_s": round(fast_wall, 4),
        "reference_ips": round(insts / ref_wall) if ref_wall > 0 else None,
        "fast_ips": round(insts / fast_wall) if fast_wall > 0 else None,
        "speedup": round(ref_wall / fast_wall, 3) if fast_wall > 0 else None,
    }


def run_fastpath_bench(
    apps=None, scale: float = 1.0, threads: int = FIG5A_THREADS,
    progress=None,
) -> dict:
    """Measure the fig5a sweep on both engines; returns the record.

    The record carries per-point rows plus two summaries: the *aggregate*
    speedup (total reference wall over total fast wall — what a campaign
    actually saves) and the per-point min/max.
    """
    emit = progress if callable(progress) else (lambda line: None)
    apps = list(apps) if apps is not None else list(SMOKE_APPS)
    rows = []
    for app in apps:
        for factory in FIG5A_CONFIGS:
            row = _measure_point(app, factory(), threads, scale)
            rows.append(row)
            emit(
                f"{row['app']}/{row['config']}: "
                f"ref {row['reference_wall_s']}s, fast {row['fast_wall_s']}s "
                f"({row['speedup']}x)"
            )
    total_ref = sum(row["reference_wall_s"] for row in rows)
    total_fast = sum(row["fast_wall_s"] for row in rows)
    speedups = [row["speedup"] for row in rows if row["speedup"]]
    return {
        "bench": "fig5a-fastpath",
        "threads": threads,
        "scale": scale,
        "apps": apps,
        "python": platform.python_version(),
        "aggregate_speedup": (
            round(total_ref / total_fast, 3) if total_fast > 0 else None
        ),
        "min_speedup": min(speedups) if speedups else None,
        "max_speedup": max(speedups) if speedups else None,
        "total_reference_wall_s": round(total_ref, 3),
        "total_fast_wall_s": round(total_fast, 3),
        "points": rows,
    }


#: Maximum fast-loop slowdown the sampled-telemetry gate tolerates: a
#: SampledObserver with default-interval metrics must cost no more than
#: 10% of the unobserved fast loop (issue acceptance criterion).
MAX_SAMPLING_OVERHEAD = 1.10

#: Sampling interval the overhead bench measures (the trace default).
OVERHEAD_INTERVAL = 1000


def run_sampling_overhead_bench(
    app: str = "mcf",
    config: MMTConfig | None = None,
    threads: int = FIG5A_THREADS,
    scale: float = 1.0,
    interval: int = OVERHEAD_INTERVAL,
    repeats: int = 3,
    progress=None,
) -> dict:
    """Fast engine with vs without a :class:`SampledObserver` on one
    fig5a point; returns the record (newest-last trajectory material).

    Each repeat runs both variants on fresh cores from the same build and
    asserts bit-identical final statistics plus exact interval
    reconciliation — an overhead number from a perturbed simulation is
    worthless.  Walls are best-of-*repeats* to shed scheduler noise;
    ``overhead_ratio`` is sampled-best over plain-best.
    """
    from repro.obs import IntervalMetrics, SampledObserver

    emit = progress if callable(progress) else (lambda line: None)
    config = config or MMTConfig.mmt_fxr()
    build = build_workload(get_profile(app), threads, scale=scale)
    machine = MachineConfig(num_threads=threads)
    fast_cls = resolve_engine("fast")
    plain_walls, sampled_walls = [], []
    for _ in range(repeats):
        job = build.limit_job() if config.limit_identical else build.job()
        plain = fast_cls(machine, config, job)
        start = time.perf_counter()
        plain_stats = plain.run()
        plain_walls.append(time.perf_counter() - start)

        job = build.limit_job() if config.limit_identical else build.job()
        metrics = IntervalMetrics(interval=interval)
        sampled = fast_cls(
            machine, config, job,
            obs=SampledObserver(interval=metrics),
        )
        start = time.perf_counter()
        sampled_stats = sampled.run()
        sampled_walls.append(time.perf_counter() - start)

        if not sampled.ran_fast_loop:
            raise AssertionError(
                "sampled run fell back to the reference loop — the "
                "overhead bench measures nothing"
            )
        if sampled_stats.__dict__ != plain_stats.__dict__:
            raise AssertionError(
                f"{app}/{config.name}: sampling perturbed the simulation"
            )
        mismatches = metrics.reconcile(sampled_stats)
        if mismatches:
            raise AssertionError(
                f"{app}/{config.name}: interval sums failed to reconcile: "
                + "; ".join(mismatches)
            )
    plain_best = min(plain_walls)
    sampled_best = min(sampled_walls)
    ratio = round(sampled_best / plain_best, 4) if plain_best > 0 else None
    emit(
        f"{app}/{config.name}: plain {plain_best:.3f}s, "
        f"sampled {sampled_best:.3f}s (overhead {ratio}x)"
    )
    return {
        "bench": "fastpath-sampling-overhead",
        "app": app,
        "config": config.name,
        "threads": threads,
        "scale": scale,
        "interval": interval,
        "repeats": repeats,
        "python": platform.python_version(),
        "samples": (plain_stats.cycles + interval - 1) // interval,
        "plain_wall_s": round(plain_best, 4),
        "sampled_wall_s": round(sampled_best, 4),
        "overhead_ratio": ratio,
    }


def append_trajectory(record: dict, path=DEFAULT_TRAJECTORY) -> Path:
    """Append *record* to the JSON trajectory at *path* (a list)."""
    path = Path(path)
    trajectory = []
    if path.exists():
        trajectory = json.loads(path.read_text())
        if not isinstance(trajectory, list):
            raise ValueError(f"{path} is not a JSON list trajectory")
    trajectory.append(record)
    path.write_text(json.dumps(trajectory, indent=2) + "\n")
    return path
