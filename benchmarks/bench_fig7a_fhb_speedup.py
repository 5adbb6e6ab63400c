"""Figure 7(a): performance sensitivity to the Fetch History Buffer size.

MMT-FXR speedup over Base at FHB sizes 8–128.  Paper shape: performance
increases through 32 entries for all applications and keeps creeping up
slightly; the paper picks 32 as the design point (single-cycle CAM).
"""

from conftest import regenerate

from repro.harness import FHB_SIZES


def test_fig7a_fhb_size_sweep(benchmark, scale):
    rows = regenerate(benchmark, "fig7a", scale)
    geo = rows[-1]
    assert geo["app"] == "geomean"
    # The paper's chosen design point (32) must not trail the tiny FHB.
    assert geo[32] >= geo[8] - 0.02
    # All sizes keep the machine functional and within sane speedup bounds.
    for row in rows:
        for size in FHB_SIZES:
            assert 0.5 < row[size] < 3.0
