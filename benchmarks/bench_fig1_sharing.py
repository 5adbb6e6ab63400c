"""Figure 1: breakdown of instruction-sharing characteristics.

Profiles every application's functional traces pairwise and reports the
execute-identical / fetch-identical-only / not-identical split, alongside
the paper's values.  Headline targets: ~88% fetch-identical and ~35%
execute-identical on average.
"""

from conftest import regenerate


def test_fig1_sharing_breakdown(benchmark, scale):
    rows = regenerate(benchmark, "fig1", scale)
    average = rows[-1]
    assert average["app"] == "average"
    # Shape targets from the paper's motivation study.
    assert average["execute_identical"] > 0.25
    assert average["not_identical"] < 0.25
    fetch_total = average["execute_identical"] + average["fetch_identical_only"]
    assert fetch_total > 0.70
