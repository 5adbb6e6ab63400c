"""Figure 5(d) and the §6.3 remerge statistic.

Breakdown of fetched instructions by fetch mode (MERGE / DETECT / CATCHUP)
under MMT-FXR.  Paper shape: CATCHUP is rare for most programs;
vpr/twolf/vortex spend the least time in MERGE mode; 90% of remerges are
found within 512 fetched branches.
"""

from conftest import emit, regenerate

from repro.harness import geomean


def test_fig5d_fetch_mode_breakdown(benchmark, scale):
    rows = regenerate(benchmark, "fig5d", scale)
    by_app = {row["app"]: row for row in rows}
    # Irregular-control applications merge the least (paper §6.3).
    irregular = ["twolf", "vpr", "vortex"]
    regular = ["ammp", "water-sp", "fft"]
    irregular_merge = geomean(max(by_app[a]["merge"], 1e-6) for a in irregular)
    regular_merge = geomean(max(by_app[a]["merge"], 1e-6) for a in regular)
    assert regular_merge > irregular_merge

    distances = [row["remerge_within_512"] for row in rows]
    emit(
        "§6.3 — Remerge distance",
        "fraction of remerges within 512 fetched branches, per app:\n"
        + "\n".join(
            f"  {row['app']:<14} {row['remerge_within_512']:.2f}" for row in rows
        )
        + f"\nmean: {sum(distances) / len(distances):.2f} (paper: ~0.90)",
    )
    assert sum(distances) / len(distances) > 0.75
