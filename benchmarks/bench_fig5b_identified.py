"""Figure 5(b): fraction of instructions identified as identical.

Under MMT-FXR, per application: execute-identical, execute-identical only
thanks to register merging ("Exe-Identical+RegMerge"), fetch-identical
(fetched together, executed apart), and not identical.  Paper shape: the
mechanism tracks ~60% of the profiled fetch-identical instructions, almost
half of which are execute-identical; equake/mcf/fft/water-ns show a
noticeable RegMerge component.
"""

from conftest import prefetch, regenerate

from repro.harness import FIGURES


def test_fig5b_identified_identical(benchmark, scale):
    prefetch("fig1", scale)
    rows = regenerate(benchmark, "fig5b", scale)
    by_app = {row["app"]: row for row in rows}
    # Register merging must matter for the apps the paper singles out.
    regmerge_apps = ["equake", "mcf", "water-ns"]
    assert any(by_app[a]["exec_identical_regmerge"] > 0.05 for a in regmerge_apps)
    # Identified exec-identical never exceeds the profiled potential by much
    # (identification is bounded by what exists).
    profile_rows = {r["app"]: r for r in FIGURES["fig1"].compute(scale=scale)}
    for app, row in by_app.items():
        identified = row["exec_identical"] + row["exec_identical_regmerge"]
        potential = profile_rows[app]["execute_identical"]
        assert identified <= potential + 0.15
