"""Scenario differential suite: every registry workload, both engines.

The workload registry (``repro.workloads.engine``) generates programs
whose whole purpose is to stress the merge/split FSM, the RST, and the
LVIP with phase-changing thread behaviour — so each one is held to the
same proof obligations as the paper workloads:

* **Cross-engine exactness** — fast vs. reference, bit-identical
  SimStats, final registers, memory images, and per-cycle fetch/commit
  streams (:func:`assert_cycle_exact` from the fast-path suite).
* **Oracle validation** — the static redundancy/value analysis
  (:func:`~repro.analysis.redundancy.analyze_build`) must bound every dynamic run
  (``validate_against``).
* **Lint gate** — every generated program lints clean.

Tier 1 covers every registered workload at one representative
(config, nctx) pair per engine family plus the shipped suite files'
structural validity.  The full cross product — all workloads x the
engine-config ladder x thread counts, plus executing the shipped
``scenarios/*.toml`` suites end-to-end — runs under ``--run-scenario``
(the ``scenario`` marker; see tests/conftest.py).
"""

from pathlib import Path

import pytest

from repro.analysis.lint import lint_program
from repro.harness.experiment import CONFIG_FACTORIES
from repro.analysis.redundancy import analyze_build
from repro.workloads.engine import (
    build_engine_workload,
    get_workload,
    workload_names,
)
from repro.workloads.suites import expand_suite_jobs, load_suite

from tests.test_fastpath_differential import assert_cycle_exact

SCENARIOS_DIR = Path(__file__).resolve().parent.parent / "scenarios"

#: Tier-1 scale: small enough for per-commit runs, large enough that the
#: dynamic workloads express more than one phase section.
SCALE = 0.25

#: Representative thread count per workload (reqstream needs >= 2 and
#: prefers odd counts so the server/client split is asymmetric).
def _nctx_for(name: str) -> int:
    workload = get_workload(name)
    for count in (4, 3, 2):
        if workload.valid_nctx(count):
            return count
    raise AssertionError(f"{name}: no usable nctx in 2..4")


def _check_workload(name: str, config_names, nctx: int, scale: float):
    """One workload through the full gate: lint, differential, oracle."""
    build = build_engine_workload(name, nctx, scale=scale, seed=5)
    assert lint_program(build.program) == [], f"{name}: lint diagnostics"
    report = analyze_build(build)
    for config_name in config_names:
        config = CONFIG_FACTORIES[config_name]()
        label = f"{name}/{nctx}t/{config_name}"
        ref_stats = assert_cycle_exact(build, config, nctx, label)
        problems = report.validate_against(ref_stats)
        assert not problems, f"{label}: oracle violation: {problems}"


@pytest.fixture(params=sorted(workload_names()))
def registry_workload(request):
    return request.param


def test_registry_workload_differential(registry_workload):
    """Tier 1: every registered workload, Base + MMT-FXR, both engines."""
    name = registry_workload
    _check_workload(name, ("Base", "MMT-FXR"), _nctx_for(name), SCALE)


def test_shipped_suites_load_and_expand():
    """The checked-in scenario suites are structurally valid and expand
    to the job counts they declare."""
    suite_files = sorted(SCENARIOS_DIR.glob("*.toml"))
    assert suite_files, "scenarios/ directory lost its suite files"
    for path in suite_files:
        suite = load_suite(path)
        jobs = expand_suite_jobs(suite, default_engine="fast")
        assert len(jobs) == suite.job_count()
        assert all(job.engine == "fast" for job in jobs)
        # Expansion is deterministic: same file, same job keys.
        from repro.harness.campaign import job_key

        again = expand_suite_jobs(load_suite(path), default_engine="fast")
        assert [job_key(j) for j in jobs] == [job_key(j) for j in again]


def test_limit_config_runs_dynamic_workload():
    """Limit-study clones of a dynamic workload run and validate (the
    MT -> limit_clone path of WorkloadBuild)."""
    from tests.test_fastpath_differential import run_pipeline

    build = build_engine_workload("dyn-phased", 4, scale=SCALE, seed=5)
    config = CONFIG_FACTORIES["Limit"]()
    core, _ = run_pipeline(build, config, 4)
    report = analyze_build(build, limit=True)
    assert report.validate_against(core.stats) == []


# ---------------------------------------------------------------- tier 2
@pytest.mark.scenario
def test_scenario_sweep_full_cross_product():
    """Every registry workload x the engine-config ladder x 2..4 threads."""
    from tests.test_fastpath_differential import ENGINE_CONFIGS

    config_names = [label for label, _ in ENGINE_CONFIGS]
    for name in sorted(workload_names()):
        workload = get_workload(name)
        for nctx in (2, 3, 4):
            if not workload.valid_nctx(nctx):
                continue
            _check_workload(name, config_names, nctx, SCALE)


@pytest.mark.scenario
def test_scenario_suite_files_execute_differentially():
    """Run every job the shipped suites declare through both engines."""
    for path in sorted(SCENARIOS_DIR.glob("*.toml")):
        suite = load_suite(path)
        seen = set()
        for scenario in suite.scenarios:
            for nctx in scenario.threads:
                key = (scenario.workload, nctx, scenario.scale, scenario.seed)
                if key in seen:
                    continue
                seen.add(key)
                build = build_engine_workload(
                    scenario.workload, nctx,
                    scale=scenario.scale, seed=scenario.seed,
                )
                assert lint_program(build.program) == []
                report = analyze_build(build)
                for config_name in scenario.configs:
                    config = CONFIG_FACTORIES[config_name]()
                    label = f"{suite.name}:{scenario.workload}/{nctx}t/{config_name}"
                    if config.limit_identical:
                        from tests.test_fastpath_differential import run_pipeline

                        core, _ = run_pipeline(build, config, nctx)
                        limit_report = analyze_build(build, limit=True)
                        assert limit_report.validate_against(core.stats) == []
                        continue
                    ref_stats = assert_cycle_exact(build, config, nctx, label)
                    assert report.validate_against(ref_stats) == []
