"""Figure 5(a): speedups with two hardware threads.

Per application: MMT-F, MMT-FX, MMT-FXR, and Limit over a two-thread
traditional SMT.  Paper headline: MMT-FXR geomean ~1.15 at two threads;
ammp/equake/mcf/water/swaptions/fluidanimate gain the most, while
libsvm/twolf/vortex/vpr/ocean/lu/fft gain 0–10%.
"""

from conftest import regenerate


def test_fig5a_speedups_two_threads(benchmark, scale):
    rows = regenerate(benchmark, "fig5a", scale)
    geo = rows[-1]
    assert geo["app"] == "geomean"
    # Shape: full MMT beats shared-execution-only beats nothing; Limit is
    # an upper bound on all of them.
    assert geo["MMT-FXR"] >= geo["MMT-FX"] - 0.02
    assert geo["Limit"] > geo["MMT-FXR"]
    assert geo["MMT-FXR"] > 1.0  # paper: 1.15
    by_app = {row["app"]: row for row in rows}
    # The paper's strong gainers must beat its weak gainers.
    strong = ["ammp", "mcf", "water-sp"]
    weak = ["twolf", "vortex", "vpr"]
    strong_mean = sum(by_app[a]["MMT-FXR"] for a in strong) / len(strong)
    weak_mean = sum(by_app[a]["MMT-FXR"] for a in weak) / len(weak)
    assert strong_mean > weak_mean
    for row in rows:
        assert row["Limit"] > 1.0  # identical clones always merge profitably
