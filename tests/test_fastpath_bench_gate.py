"""CI regression gate for the fast-path engine's speedup.

Marked ``bench`` (tier 2): a plain ``pytest`` run skips it; CI's bench
job and nightly enable it with ``--run-bench``.  It runs the fig5a smoke
sweep (four apps, every configuration, both engines) at a reduced scale,
appends the record to the workspace ``BENCH_fastpath.json`` trajectory so
the job's artifact shows the measured numbers, and fails if the
fast/reference aggregate speedup drops below the pinned floor.

The floor (:data:`repro.harness.fastbench.PINNED_MIN_SPEEDUP`) was set
at about 0.6 of the ~2.0x record so shared-runner noise could not flake
the gate while outright de-optimisations of the fast loop still trip it.
The record now reads 1.37x, because the reference core got faster.
"""

import pytest

from repro.harness.fastbench import (
    PINNED_MIN_SPEEDUP,
    SMOKE_APPS,
    append_trajectory,
    run_fastpath_bench,
)

#: Big enough that per-point wall times are milliseconds, not microseconds
#: (timer noise), small enough for a commit-gate job.
SMOKE_SCALE = 0.5


@pytest.mark.bench
def test_fastpath_speedup_gate(capsys):
    with capsys.disabled():
        print(
            f"\nfastpath bench gate: {len(SMOKE_APPS)} apps x 5 configs, "
            f"scale {SMOKE_SCALE}, floor {PINNED_MIN_SPEEDUP}x"
        )
        record = run_fastpath_bench(scale=SMOKE_SCALE, progress=print)
        print(
            f"aggregate {record['aggregate_speedup']}x "
            f"(per-point {record['min_speedup']}x–{record['max_speedup']}x)"
        )
    append_trajectory(record)
    assert record["aggregate_speedup"] is not None
    assert record["aggregate_speedup"] >= PINNED_MIN_SPEEDUP, (
        f"fast engine regressed: aggregate speedup "
        f"{record['aggregate_speedup']}x fell below the pinned "
        f"{PINNED_MIN_SPEEDUP}x floor (per-point min "
        f"{record['min_speedup']}x)"
    )


@pytest.mark.bench
def test_sampling_overhead_gate(capsys):
    """Observer-overhead gate: a fig5a point with vs without sampled
    telemetry on the fast engine.  The record lands in the same
    ``BENCH_fastpath.json`` trajectory artifact; the gate fails if the
    sampled run costs more than :data:`MAX_SAMPLING_OVERHEAD` (1.10x)
    of the unobserved fast loop."""
    from repro.harness.fastbench import (
        MAX_SAMPLING_OVERHEAD,
        run_sampling_overhead_bench,
    )

    with capsys.disabled():
        print(
            f"\nsampling overhead gate: scale {SMOKE_SCALE}, "
            f"ceiling {MAX_SAMPLING_OVERHEAD}x"
        )
        record = run_sampling_overhead_bench(
            scale=SMOKE_SCALE, progress=print
        )
    append_trajectory(record)
    assert record["overhead_ratio"] is not None
    assert record["overhead_ratio"] <= MAX_SAMPLING_OVERHEAD, (
        f"sampled telemetry costs {record['overhead_ratio']}x of the "
        f"unobserved fast loop, above the {MAX_SAMPLING_OVERHEAD}x "
        "ceiling"
    )
