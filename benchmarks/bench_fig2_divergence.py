"""Figure 2: distribution of divergent-path length differences.

For each application, the cumulative fraction of divergences whose two
paths differ by at most 16/32/.../512 taken branches.  Paper shape: all
programs except equake and vortex have >85% of divergences within 16 taken
branches — short taken-branch history (the FHB) suffices for remerging.
"""

from conftest import regenerate


def test_fig2_divergence_histogram(benchmark, scale):
    rows = regenerate(benchmark, "fig2", scale)
    within16 = {row["app"]: row["<=16"] for row in rows}
    hard = {"equake", "vortex"}
    easy_apps = [app for app in within16 if app not in hard]
    # Paper: >85% within 16 taken branches for all but equake/vortex.
    good = sum(1 for app in easy_apps if within16[app] >= 0.85)
    assert good >= len(easy_apps) * 0.7
    # The two long-tail applications must actually show a long tail.
    assert within16["equake"] < 0.85 or within16["vortex"] < 0.85
