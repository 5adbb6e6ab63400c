"""Figure 7(d): sensitivity to the instruction fetch width.

Paper shape: MMT's gains shrink as fetch widens (the fetch bottleneck it
relieves disappears) but remain positive — still ~11% at width 32 with a
perfect-prediction trace cache.
"""

from conftest import SWEEP_APPS, regenerate

from repro.harness import FETCH_WIDTHS


def test_fig7d_fetch_width_sweep(benchmark, scale):
    rows = regenerate(benchmark, "fig7d", scale, apps=SWEEP_APPS)
    assert [row["fetch_width"] for row in rows] == list(FETCH_WIDTHS)
    speeds = {row["fetch_width"]: row["geomean_speedup"] for row in rows}
    # Gains remain positive even at width 32 (paper: ~11%).
    assert speeds[32] > 1.0
    # Narrow fetch benefits at least as much as the widest machine.
    assert speeds[4] >= speeds[32] - 0.05
