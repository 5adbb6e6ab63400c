"""Experiment harness: caching, figures plumbing, report rendering."""

import pytest

from repro.core.config import MMTConfig
from repro.harness.experiment import (
    clear_cache,
    default_apps,
    geomean,
    run_app,
    speedup_over_base,
)
from repro.harness.figures import (
    FETCH_WIDTHS,
    FHB_SIZES,
    FIGURES,
    LDST_PORT_COUNTS,
    fig5_speedups,
    fig5b_identified,
    fig5d_modes,
    fig6_energy,
    paper_claims,
    table3_hardware,
    table4_configuration,
    table5_configurations,
)
from repro.harness.report import format_pairs, format_stacked_bars, format_table

SCALE = 0.25
APPS = ["ammp", "lu"]


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def test_geomean():
    assert abs(geomean([2.0, 8.0]) - 4.0) < 1e-12
    assert geomean([]) == 0.0


def test_default_apps_order():
    apps = default_apps()
    assert apps[0] == "ammp" and len(apps) == 16


def test_run_app_caches():
    first = run_app("ammp", MMTConfig.base(), 2, scale=SCALE)
    second = run_app("ammp", MMTConfig.base(), 2, scale=SCALE)
    assert first is second
    third = run_app("ammp", MMTConfig.base(), 2, scale=SCALE, use_cache=False)
    assert third is not first


def test_speedup_over_base_self_is_one():
    assert speedup_over_base("ammp", MMTConfig.base(), 2, scale=SCALE) == 1.0


def test_fig5_rows_structure():
    rows = fig5_speedups(2, apps=APPS, scale=SCALE)
    assert [row["app"] for row in rows] == APPS + ["geomean"]
    for row in rows:
        for key in ("MMT-F", "MMT-FX", "MMT-FXR", "Limit"):
            assert row[key] > 0


def test_fig5b_fractions_sum_to_one():
    rows = fig5b_identified(2, apps=APPS, scale=SCALE)
    for row in rows:
        total = (
            row["exec_identical"]
            + row["exec_identical_regmerge"]
            + row["fetch_identical"]
            + row["not_identical"]
        )
        assert abs(total - 1.0) < 1e-9


def test_fig5d_modes_sum_to_one():
    rows = fig5d_modes(2, apps=APPS, scale=SCALE)
    for row in rows:
        assert abs(row["merge"] + row["detect"] + row["catchup"] - 1.0) < 1e-9
        assert 0.0 <= row["remerge_within_512"] <= 1.0


def test_fig6_reference_bar_is_one():
    rows = fig6_energy(apps=["ammp"], scale=SCALE)
    assert abs(rows[0]["SMT-2T"]["total"] - 1.0) < 1e-9
    assert rows[0]["MMT-2T"]["total"] > 0


def test_tables():
    assert any(row["component"] == "LVIP" for row in table3_hardware())
    pairs = table4_configuration()
    assert ("ROB Size", "256") in pairs
    assert ("Base", "Traditional SMT") in table5_configurations()


# -------------------------------------------------------------- paper claims
def _paper_shaped_rows() -> dict:
    """Rows of every target over the sixteen apps, shaped as the paper
    reports them (the tables are the real ones)."""
    apps = default_apps()
    rows = {target: FIGURES[target].compute()
            for target in ("table3", "table4", "table5")}
    sharing = {"execute_identical": 0.4, "fetch_identical_only": 0.5,
               "not_identical": 0.1}
    rows["fig1"] = [{"app": app, **sharing} for app in apps + ["average"]]
    rows["fig2"] = [{"app": app, "<=16": 0.5 if app in ("equake", "vortex")
                     else 0.9} for app in apps]

    def speedups(strong, other, limit):
        body = [{"app": app, "MMT-F": 1.0, "Limit": limit,
                 "MMT-FX": gain, "MMT-FXR": gain}
                for app in apps
                for gain in [strong if app in ("ammp", "mcf", "water-sp")
                             else other]]
        return body + [{"app": "geomean", **{
            key: geomean(row[key] for row in body)
            for key in ("MMT-F", "MMT-FX", "MMT-FXR", "Limit")}}]

    rows["fig5a"] = speedups(1.3, 1.05, 1.5)
    rows["fig5c"] = speedups(1.4, 1.2, 2.0)
    rows["fig5b"] = [{"app": app, "exec_identical": 0.3,
                      "exec_identical_regmerge": 0.1} for app in apps]
    rows["fig5d"] = [{"app": app, "remerge_within_512": 0.9,
                      "merge": 0.4 if app in ("twolf", "vpr", "vortex")
                      else 0.9} for app in apps]
    energy = {label: {"cache": 0.1, "mmt_overhead": 0.01,
                      "other": total - 0.11, "total": total}
              for label, total in (("SMT-2T", 1.0), ("MMT-2T", 0.85),
                                   ("SMT-4T", 1.0), ("MMT-4T", 0.7))}
    rows["fig6"] = [{"app": app, **energy} for app in apps + ["geomean"]]
    rows["fig7a"] = [{"app": app, **dict.fromkeys(FHB_SIZES, 1.1)}
                     for app in apps + ["geomean"]]
    rows["fig7b"] = [{"ldst_ports": ports, "geomean_speedup": 1.2}
                     for ports in LDST_PORT_COUNTS]
    rows["fig7c"] = [{"app": app, "fhb_size": size, "merge": 0.5,
                      "detect": 0.25, "catchup": 0.25}
                     for app in apps for size in FHB_SIZES]
    rows["fig7d"] = [{"fetch_width": width, "geomean_speedup": 1.2}
                     for width in FETCH_WIDTHS]
    return rows


def test_paper_claims_hold_on_paper_shaped_rows():
    claims = paper_claims(_paper_shaped_rows())
    counts = {}
    for figure, _, _ in claims:
        counts[figure] = counts.get(figure, 0) + 1
    assert counts == {"fig1": 3, "fig2": 2, "fig5a": 5, "fig5b": 2,
                      "fig5c": 3, "fig5d": 2, "fig6": 4, "fig7a": 2,
                      "fig7b": 3, "fig7c": 2, "fig7d": 3, "table3": 1,
                      "table4": 1, "table5": 1}
    assert [claim for claim in claims if not claim[2]] == []


def test_a_flipped_paper_ordering_fails_its_claim():
    """The paper's strong gainers falling behind its weak ones fails
    that claim alone, and its text shows the values compared."""
    rows = _paper_shaped_rows()
    for row in rows["fig5a"]:
        if row["app"] in ("ammp", "mcf", "water-sp"):
            row["MMT-FXR"] = 1.0
    failed = [claim for claim in paper_claims(rows) if not claim[2]]
    assert failed == [("fig5a", "MMT-FXR mean of ammp, mcf, water-sp 1.000 "
                       "> twolf, vortex, vpr 1.050", False)]


# -------------------------------------------------------------------- report
def test_format_table():
    text = format_table(
        [{"a": 1.5, "b": "x"}], columns=["a", "b"], title="T"
    )
    assert "T" in text and "1.500" in text and "x" in text


def test_format_pairs():
    text = format_pairs([("k", "v"), ("key2", "v2")])
    assert "k     v" in text


def test_format_stacked_bars():
    rows = [{"app": "x", "merge": 0.5, "detect": 0.25, "catchup": 0.25}]
    text = format_stacked_bars(rows, "app", ["merge", "detect", "catchup"], width=8)
    assert "x" in text and "legend" in text
