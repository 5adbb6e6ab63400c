"""Figure 7(c): fetch-mode breakdown as the FHB size varies.

Paper shape: larger FHBs capture merge points a small FHB misses (more
MERGE time for equake/ocean/lu/fft/water-ns) but can also lengthen
CATCHUP for twolf/vortex/vpr/water-sp.
"""

from conftest import regenerate

from repro.harness import FHB_SIZES

APPS = ["equake", "vortex", "lu", "fft", "water-sp", "twolf"]


def test_fig7c_fhb_mode_breakdown(benchmark, scale):
    rows = regenerate(benchmark, "fig7c", scale, apps=APPS)
    for row in rows:
        total = row["merge"] + row["detect"] + row["catchup"]
        assert abs(total - 1.0) < 1e-9
    # Every (app, size) point ran; 6 apps x 5 sizes.
    assert len(rows) == len(APPS) * len(FHB_SIZES)
