"""Experiment harness: figures plumbing, rows from results, report
rendering."""

import dataclasses

import pytest

from repro.core.config import MMTConfig
from repro.harness import experiment
from repro.harness.experiment import (
    CampaignJob,
    default_apps,
    geomean,
    run_points,
)
from repro.harness.figures import (
    CATCHUP_BUDGETS,
    FETCH_WIDTHS,
    FHB_SIZES,
    FIGURES,
    HINT_APPS,
    LDST_PORT_COUNTS,
    MERGE_READ_PORTS,
    MP_RANKS,
    SKEW_CYCLES,
    Results,
    figure_points,
    paper_claims,
    results_of,
    run_figures,
    table3_hardware,
    table4_configuration,
    table5_configurations,
)
from repro.harness.report import format_pairs, format_stacked_bars, format_table

SCALE = 0.25
APPS = ["ammp", "lu"]


@pytest.fixture(scope="module")
def figure_run(tmp_path_factory):
    """Figures 5(a), 5(b), 5(d) and 6 over APPS, as ``repro`` runs them:
    one validated campaign, then rows from its results."""
    run = run_figures(["fig5a", "fig5b", "fig5d", "fig6"], APPS, SCALE,
                      workers=2, cache=tmp_path_factory.mktemp("cache"))
    assert run.rows is not None
    return run


def _count_simulations(monkeypatch) -> list:
    """Spy on the in-process simulation entry point; returns its calls."""
    simulate = experiment._simulate
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[:3])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(experiment, "_simulate", spy)
    return calls


def test_geomean():
    assert abs(geomean([2.0, 8.0]) - 4.0) < 1e-12
    assert geomean([]) == 0.0


def test_default_apps_order():
    apps = default_apps()
    assert apps[0] == "ammp" and len(apps) == 16


def test_fig5_rows_structure(figure_run):
    rows = figure_run.rows["fig5a"]
    assert [row["app"] for row in rows] == APPS + ["geomean"]
    for row in rows:
        for key in ("MMT-F", "MMT-FX", "MMT-FXR", "Limit"):
            assert row[key] > 0


def test_fig5b_fractions_sum_to_one(figure_run):
    rows = figure_run.rows["fig5b"]
    for row in rows:
        total = (
            row["exec_identical"]
            + row["exec_identical_regmerge"]
            + row["fetch_identical"]
            + row["not_identical"]
        )
        assert abs(total - 1.0) < 1e-9


def test_fig5d_modes_sum_to_one(figure_run):
    rows = figure_run.rows["fig5d"]
    for row in rows:
        assert abs(row["merge"] + row["detect"] + row["catchup"] - 1.0) < 1e-9
        assert 0.0 <= row["remerge_within_512"] <= 1.0


def test_fig6_reference_bar_is_one(figure_run):
    rows = FIGURES["fig6"].compute(results_of(*figure_run.campaigns),
                                   ["ammp"], SCALE)
    assert abs(rows[0]["SMT-2T"]["total"] - 1.0) < 1e-9
    assert rows[0]["MMT-2T"]["total"] > 0


# ------------------------------------------------------ rows from results
def _energy_per_job(run) -> float:
    energy = run.energy
    return ((energy.cache + energy.mmt_overhead + energy.other)
            / max(1, run.stats.committed_thread_insts))


@pytest.mark.parametrize("variant", [{"seed": 1}, {"engine": "fast"}])
def test_rows_read_the_campaign_they_are_given(tmp_path, monkeypatch,
                                               variant):
    """Rows computed after a reseeded or a fast-engine Fig 6 campaign read
    that campaign's results and simulate nothing."""
    jobs = [dataclasses.replace(job, **variant)
            for job in figure_points("fig6", ["ammp"], 0.1)]
    result = run_points(jobs, workers=2, cache=tmp_path)
    assert result.validation_failures == []
    runs = {job.label(): outcome.payload
            for job, outcome in zip(jobs, result.outcomes)}
    simulations = _count_simulations(monkeypatch)
    (row, _) = FIGURES["fig6"].compute(results_of(result), ["ammp"], 0.1)
    assert simulations == []
    for bar, label in (("MMT-2T", "ammp/MMT-FXR/2t"),
                       ("SMT-4T", "ammp/Base/4t"),
                       ("MMT-4T", "ammp/MMT-FXR/4t")):
        assert row[bar]["total"] == pytest.approx(
            _energy_per_job(runs[label])
            / _energy_per_job(runs["ammp/Base/2t"]))


def test_rows_over_a_point_the_results_lack_raise(tmp_path, monkeypatch):
    """A figure asked for an app its campaign did not run raises; it does
    not simulate the missing points."""
    result = run_points(figure_points("fig5a", ["ammp"], 0.05), workers=2,
                        cache=tmp_path)
    simulations = _count_simulations(monkeypatch)
    with pytest.raises(KeyError, match="lu/Base/2t"):
        FIGURES["fig5a"].compute(results_of(result), ["ammp", "lu"], 0.05)
    with pytest.raises(KeyError, match="ammp/sharing"):
        FIGURES["fig1"].compute(results_of(result), ["ammp"], 0.05)
    assert simulations == []


def test_results_holding_a_point_twice_are_refused():
    """One point under two engines is two answers to one row: refused,
    not picked between."""
    job = CampaignJob("ammp", MMTConfig.mmt_fxr(), 2)
    twice = {job: object(), dataclasses.replace(job, engine="fast"): object()}
    with pytest.raises(ValueError, match="two engines or seeds"):
        Results(twice, 1.0)


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
    rows["abl-drain"] = [{"drain": drain, "geomean": geo} for drain, geo in
                         (("off", 1.1), ("capped-12", 1.08), ("full", 1.05))]
    rows["abl-trace-cache"] = [{"fetch": "trace-cache", "geomean": 1.1},
                               {"fetch": "plain-L1I", "geomean": 1.09}]
    rows["abl-catchup"] = [{"budget": budget, "geomean": 1.1}
                           for budget in CATCHUP_BUDGETS]
    rows["abl-read-ports"] = [{"read_ports": ports, "geomean": 1.1}
                              for ports in MERGE_READ_PORTS]
    rows["abl-skew"] = [{"skew_cycles": skew,
                         "ammp exec-id": 0.6 if skew == 0 else 0.03}
                        for skew in SKEW_CYCLES]
    rows["ext-mp"] = [{"pattern": f"{pattern}-{ranks}rank", "speedup": ranks,
                       "exec_identical": 0.9}
                      for ranks in MP_RANKS for pattern in ("ring", "pairs")]
    rows["ext-hints"] = [{"app": app, "MMT-FXR merge": 0.5,
                          "MMT-FXR+H merge": 0.8, "energy ratio": 0.9}
                         for app in HINT_APPS]
    return rows


def test_paper_claims_hold_on_paper_shaped_rows():
    claims = paper_claims(_paper_shaped_rows())
    counts = {}
    for figure, _, _ in claims:
        counts[figure] = counts.get(figure, 0) + 1
    assert counts == {"fig1": 3, "fig2": 2, "fig5a": 5, "fig5b": 2,
                      "fig5c": 3, "fig5d": 2, "fig6": 4, "fig7a": 2,
                      "fig7b": 3, "fig7c": 2, "fig7d": 3, "table3": 1,
                      "table4": 1, "table5": 1, "abl-drain": 1,
                      "abl-trace-cache": 1, "abl-catchup": 1,
                      "abl-read-ports": 1, "abl-skew": 1, "ext-mp": 2,
                      "ext-hints": 3}
    assert len(claims) == 44
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


def test_a_flipped_ablation_ordering_fails_its_claim():
    """The full remerge drain beating the shipped default (off) fails
    that claim alone, and its text shows the values compared."""
    rows = _paper_shaped_rows()
    rows["abl-drain"][-1]["geomean"] = 1.2
    failed = [claim for claim in paper_claims(rows) if not claim[2]]
    assert failed == [("abl-drain", "geomean with the drain off 1.100 >= "
                       "full 1.200 - 0.02 (the shipped default)", False)]


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
