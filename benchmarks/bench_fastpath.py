"""Fast-path engine benchmark: reference vs fast on the fig5a sweep.

Runs every fig5a configuration (Base, MMT-F, MMT-FX, MMT-FXR, Limit) at
two hardware threads on both engines, printing per-point wall-clock,
instructions/sec, and the fast/reference speedup.  Each point asserts
bit-identical final statistics before its timing counts.

The record appends to the repo-root ``BENCH_fastpath.json`` trajectory
when ``REPRO_BENCH_RECORD=1`` (how the checked-in trajectory is grown —
run it on an otherwise-idle machine, then commit the file); plain runs
only print.  The gate asserts the aggregate speedup stays above the
pinned floor either way.
"""

import os

from conftest import emit

from repro.harness.fastbench import (
    DEFAULT_TRAJECTORY,
    PINNED_MIN_SPEEDUP,
    append_trajectory,
    run_fastpath_bench,
)

RECORD = os.environ.get("REPRO_BENCH_RECORD", "") == "1"


def _format_rows(points) -> str:
    header = (
        f"{'app':<14}{'config':<10}{'insts':>9}{'ref s':>9}{'fast s':>9}"
        f"{'ref i/s':>10}{'fast i/s':>10}{'speedup':>9}"
    )
    lines = [header, "-" * len(header)]
    for row in points:
        lines.append(
            f"{row['app']:<14}{row['config']:<10}{row['committed_insts']:>9}"
            f"{row['reference_wall_s']:>9.4f}{row['fast_wall_s']:>9.4f}"
            f"{row['reference_ips']:>10}{row['fast_ips']:>10}"
            f"{row['speedup']:>8.2f}x"
        )
    return "\n".join(lines)


def test_fastpath_engine_speedup(benchmark, scale):
    record = benchmark.pedantic(
        lambda: run_fastpath_bench(apps=None, scale=scale),
        rounds=1,
        iterations=1,
    )
    summary = (
        f"aggregate {record['aggregate_speedup']}x "
        f"(per-point {record['min_speedup']}x–{record['max_speedup']}x, "
        f"ref {record['total_reference_wall_s']}s vs "
        f"fast {record['total_fast_wall_s']}s)"
    )
    emit(
        "Fast-path engine — fig5a sweep, reference vs fast wall-clock",
        _format_rows(record["points"]) + "\n\n" + summary,
    )
    if RECORD:
        path = append_trajectory(record)
        print(f"recorded trajectory point -> {path}")
    else:
        print(f"not recorded (set REPRO_BENCH_RECORD=1); {DEFAULT_TRAJECTORY}")
    assert record["aggregate_speedup"] >= PINNED_MIN_SPEEDUP, (
        f"fast engine regressed: aggregate speedup "
        f"{record['aggregate_speedup']}x fell below the pinned "
        f"{PINNED_MIN_SPEEDUP}x floor"
    )

