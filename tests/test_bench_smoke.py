"""Smoke coverage of the benchmark modules and the figure drivers.

Imports every ``benchmarks/bench_*.py`` module (so a broken import fails
fast, not only under the benchmark runner) and computes each figure's
rows at tiny scale — one or two apps per figure — from the campaign
that ``repro <figure>`` runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

from repro.harness import figures, run_points

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_MODULES = sorted(p.stem for p in BENCH_DIR.glob("bench_*.py"))

APPS = ["ammp", "lu"]  # one multi-execution app, one multi-threaded app
SCALE = 0.12


@pytest.fixture(autouse=True, scope="module")
def _bench_dir_on_path():
    sys.path.insert(0, str(BENCH_DIR))
    yield
    sys.path.remove(str(BENCH_DIR))


def test_bench_modules_discovered():
    # The paper's figures and tables, the ablations and the extensions
    # come from `repro reproduce`.
    assert BENCH_MODULES == ["bench_fastpath"]


def test_fastbench_points_run_through_the_harness():
    """The fast-engine benchmark's records, at a tiny scale: every fig5a
    point ran bit-identical on both engines (the bench raises otherwise)
    and reads the cycles and committed instructions of the harness's own
    run of it.  No wall-clock bound: that is the bench gate's job."""
    from repro.core.config import MMTConfig
    from repro.harness.experiment import CampaignJob, simulate_job
    from repro.harness.fastbench import (
        FIG5A_CONFIGS,
        run_fastpath_bench,
        run_sampling_overhead_bench,
    )

    record = run_fastpath_bench(apps=["ammp"], scale=0.05)
    assert [(row["app"], row["config"], row["threads"])
            for row in record["points"]] == [
        ("ammp", factory().name, 2) for factory in FIG5A_CONFIGS]
    for row, factory in zip(record["points"], FIG5A_CONFIGS):
        job = CampaignJob("ammp", factory(), 2, scale=0.05)
        stats = simulate_job(job, 0).stats
        assert (row["cycles"], row["committed_insts"]) == (
            stats.cycles, stats.committed_thread_insts)

    overhead = run_sampling_overhead_bench(scale=0.05, repeats=1)
    job = CampaignJob("mcf", MMTConfig.mmt_fxr(), 2, scale=0.05,
                      engine="fast")
    stats = simulate_job(job, 0).stats
    assert overhead["samples"] == -(-stats.cycles // overhead["interval"])
    assert overhead["overhead_ratio"] > 0


@pytest.mark.parametrize("name", BENCH_MODULES)
def test_bench_module_imports_and_defines_tests(name):
    module = importlib.import_module(name)
    tests = [attr for attr in dir(module) if attr.startswith("test_")]
    assert tests, f"{name} defines no benchmark tests"
    for attr in tests:
        assert callable(getattr(module, attr))


# ------------------------------------------------- tiny figure regeneration
def _campaign(fig, apps, scale=SCALE):
    """The campaign ``repro <fig>`` runs: its points, through run_points."""
    return run_points(figures.figure_points(fig, apps, scale), workers=2)


def _tiny(rows):
    assert isinstance(rows, list) and rows
    assert all(isinstance(row, dict) for row in rows)
    return rows


def test_fig1_and_fig2_tiny(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    run = figures.run_figures(["fig1", "fig2"], APPS, SCALE, workers=2)
    assert run.points is None
    assert all(o.ok for o in run.sharing.outcomes)
    rows = _tiny(run.rows["fig1"])
    assert [row["app"] for row in rows] == APPS + ["average"]
    rows2 = _tiny(run.rows["fig2"])
    assert [row["app"] for row in rows2] == APPS


def test_fig5_family_tiny(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    run = figures.run_figures(["fig5a", "fig5b", "fig5d"], APPS, SCALE,
                              workers=2)
    result = run.points
    assert result.jobs == 10  # 2 apps x 5 paper configurations
    assert all(o.ok for o in result.outcomes)
    rows = _tiny(run.rows["fig5a"])
    assert [row["app"] for row in rows] == APPS + ["geomean"]
    assert {"MMT-F", "MMT-FX", "MMT-FXR", "Limit"} <= rows[0].keys()
    _tiny(run.rows["fig5b"])
    _tiny(run.rows["fig5d"])


def test_fig6_energy_tiny(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    run = figures.run_figures(["fig6"], APPS, SCALE, workers=2)
    rows = _tiny(run.rows["fig6"])
    assert [row["app"] for row in rows] == APPS + ["geomean"]


def test_fig7_sweeps_tiny(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    one = ["ammp"]
    rows = figures.run_figures(["fig7a", "fig7b", "fig7c", "fig7d"], one,
                               SCALE, workers=2).rows
    assert [row["app"] for row in _tiny(rows["fig7a"])] == one + ["geomean"]
    _tiny(rows["fig7c"])
    assert [row["ldst_ports"] for row in _tiny(rows["fig7b"])] == list(
        figures.LDST_PORT_COUNTS)
    assert [row["fetch_width"] for row in _tiny(rows["fig7d"])] == list(
        figures.FETCH_WIDTHS)


def test_tables_need_no_simulation():
    assert figures.figure_points("table3") == []
    rows = figures.table3_hardware()
    assert any("FHB" in row["component"] for row in rows)
    assert figures.table4_configuration()
    assert figures.table5_configurations()


@pytest.mark.parametrize(
    "fig", [name for name, figure in figures.FIGURES.items() if figure.series()]
)
def test_prefetch_covers_the_rows(fig, tmp_path, monkeypatch):
    """A figure's campaign runs every point its rows read: computing the
    rows afterwards simulates nothing."""
    from repro.harness import experiment

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    result = _campaign(fig, ["ammp"], 0.05)
    simulate = experiment.simulate
    calls = []

    def spy(job, *args, **kwargs):
        calls.append(job)
        return simulate(job, *args, **kwargs)

    monkeypatch.setattr(experiment, "simulate", spy)
    _tiny(figures.FIGURES[fig].compute(figures.results_of(result), ["ammp"],
                                       0.05))
    assert calls == []


def test_prefetch_second_pass_is_all_cache_hits(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    first = _campaign("fig5b", APPS)
    assert first.cache_misses == first.jobs > 0
    second = _campaign("fig5b", APPS)
    assert second.cache_hits == second.jobs
    assert second.cache_misses == 0
