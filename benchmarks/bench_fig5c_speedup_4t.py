"""Figure 5(c): speedups with four hardware threads.

Paper headline: MMT-FXR geomean ~1.25 over a four-thread SMT, with larger
gains than at two threads (more merge opportunity, more contention
relieved).
"""

from conftest import emit, regenerate

from repro.harness import FIGURES


def test_fig5c_speedups_four_threads(benchmark, scale):
    rows4 = regenerate(benchmark, "fig5c", scale)
    geo4 = rows4[-1]
    assert geo4["MMT-FXR"] > 1.10  # paper: 1.25
    assert geo4["Limit"] > geo4["MMT-FXR"]

    # The paper's central scaling claim: 4-thread gains exceed 2-thread.
    geo2 = FIGURES["fig5a"].compute(scale=scale)[-1]  # cached if fig5a ran first
    emit(
        "Figure 5(a)+(c) — geomean summary",
        f"2T MMT-FXR {geo2['MMT-FXR']:.3f} (paper 1.15)   "
        f"4T MMT-FXR {geo4['MMT-FXR']:.3f} (paper 1.25)",
    )
    assert geo4["MMT-FXR"] > geo2["MMT-FXR"]
