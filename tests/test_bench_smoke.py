"""Smoke coverage of the benchmark drivers.

Imports every ``benchmarks/bench_*.py`` module (so a broken import fails
fast, not only under the benchmark runner) and exercises each figure
driver at tiny scale — one or two apps per figure — through the same
campaign-prefetch path the benchmarks use.
"""

import importlib
import sys
from pathlib import Path

import pytest

from repro.harness import clear_cache, figures

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_MODULES = sorted(p.stem for p in BENCH_DIR.glob("bench_*.py"))

APPS = ["ammp", "lu"]  # one multi-execution app, one multi-threaded app
SCALE = 0.12


@pytest.fixture(autouse=True, scope="module")
def _bench_dir_on_path():
    sys.path.insert(0, str(BENCH_DIR))
    clear_cache()
    yield
    clear_cache()
    sys.path.remove(str(BENCH_DIR))


def test_bench_modules_discovered():
    assert len(BENCH_MODULES) >= 13  # 11 figures + 2 tables + extras


@pytest.mark.parametrize("name", BENCH_MODULES)
def test_bench_module_imports_and_defines_tests(name):
    module = importlib.import_module(name)
    tests = [attr for attr in dir(module) if attr.startswith("test_")]
    assert tests, f"{name} defines no benchmark tests"
    for attr in tests:
        assert callable(getattr(module, attr))


# ------------------------------------------------- tiny figure regeneration
def _tiny(fig_fn, *args, **kwargs):
    rows = fig_fn(*args, **kwargs)
    assert isinstance(rows, list) and rows
    assert all(isinstance(row, dict) for row in rows)
    return rows


def test_fig1_and_fig2_tiny(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    result = figures.prefetch_figure("fig1", apps=APPS, scale=SCALE, workers=2)
    assert all(o.ok for o in result.outcomes)
    rows = _tiny(figures.fig1_sharing, apps=APPS, scale=SCALE)
    assert [row["app"] for row in rows] == APPS + ["average"]
    rows2 = _tiny(figures.fig2_divergence, apps=APPS, scale=SCALE)
    assert [row["app"] for row in rows2] == APPS


def test_fig5_family_tiny(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_cache()
    result = figures.prefetch_figure("fig5a", apps=APPS, scale=SCALE, workers=2)
    assert result.jobs == 10  # 2 apps x 5 paper configurations
    assert all(o.ok for o in result.outcomes)
    rows = _tiny(figures.fig5_speedups, 2, apps=APPS, scale=SCALE)
    assert [row["app"] for row in rows] == APPS + ["geomean"]
    assert {"MMT-F", "MMT-FX", "MMT-FXR", "Limit"} <= rows[0].keys()
    _tiny(figures.fig5b_identified, 2, apps=APPS, scale=SCALE)
    _tiny(figures.fig5d_modes, 2, apps=APPS, scale=SCALE)


def test_fig6_energy_tiny(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_cache()
    figures.prefetch_figure("fig6", apps=APPS, scale=SCALE, workers=2)
    rows = _tiny(figures.fig6_energy, apps=APPS, scale=SCALE)
    assert {row["app"] for row in rows} >= set(APPS)


def test_fig7_sweeps_tiny(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_cache()
    one = ["ammp"]
    figures.prefetch_figure("fig7a", apps=one, scale=SCALE, workers=2)
    _tiny(figures.fig7a_fhb_speedup, apps=one, scale=SCALE)
    _tiny(figures.fig7c_fhb_modes, apps=one, scale=SCALE)
    figures.prefetch_figure("fig7b", apps=one, scale=SCALE, workers=2)
    rows = _tiny(figures.fig7b_ports, apps=one, scale=SCALE)
    assert [row["ldst_ports"] for row in rows] == list(figures.LDST_PORT_COUNTS)
    figures.prefetch_figure("fig7d", apps=one, scale=SCALE, workers=2)
    rows = _tiny(figures.fig7d_fetch_width, apps=one, scale=SCALE)
    assert [row["fetch_width"] for row in rows] == list(figures.FETCH_WIDTHS)


def test_tables_need_no_simulation():
    assert figures.figure_points("table3") == []
    rows = figures.table3_hardware()
    assert any("FHB" in row["component"] for row in rows)
    assert figures.table4_configuration()
    assert figures.table5_configurations()
    assert figures.prefetch_figure("table3") is None


@pytest.mark.parametrize(
    "fig", [name for name, figure in figures.FIGURES.items() if figure.series()]
)
def test_prefetch_covers_the_rows(fig, tmp_path, monkeypatch):
    """A figure's prefetch runs every point its rows read: computing the
    rows afterwards simulates nothing."""
    from repro.harness import experiment

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_cache()
    figures.prefetch_figure(fig, apps=["ammp"], scale=0.05, workers=2)
    simulate = experiment._simulate
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[:3])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(experiment, "_simulate", spy)
    _tiny(figures.FIGURES[fig].compute, ["ammp"], 0.05)
    assert calls == []


def test_prefetch_second_pass_is_all_cache_hits(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_cache()
    first = figures.prefetch_figure("fig5b", apps=APPS, scale=SCALE, workers=2)
    assert first.cache_misses == first.jobs > 0
    clear_cache()  # drop the in-memory memo; the disk cache must carry it
    second = figures.prefetch_figure("fig5b", apps=APPS, scale=SCALE, workers=2)
    assert second.cache_hits == second.jobs
    assert second.cache_misses == 0


def test_conftest_prefetch_helper_respects_disable(monkeypatch):
    conftest = importlib.import_module("conftest")
    monkeypatch.setattr(conftest, "WORKERS", 0)
    assert conftest.prefetch("fig5a", SCALE) is None
