"""Edge-case coverage for scenario-suite loading and expansion."""

from pathlib import Path

import pytest

from repro.harness.campaign import job_key
from repro.workloads.suites import (
    SuiteError,
    expand_suite_jobs,
    load_suite,
)


def _write(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "suite.toml"
    path.write_text(text)
    return path


def _error_of(tmp_path, text: str) -> SuiteError:
    with pytest.raises(SuiteError) as excinfo:
        load_suite(_write(tmp_path, text))
    return excinfo.value


def test_missing_file_is_a_suite_error(tmp_path):
    with pytest.raises(SuiteError) as excinfo:
        load_suite(tmp_path / "absent.toml")
    assert "cannot read" in excinfo.value.reason


def test_malformed_toml_is_a_structured_error(tmp_path):
    error = _error_of(tmp_path, "this is [not toml\n")
    assert "not valid TOML" in error.reason
    assert error.scenario is None


def test_empty_suite_is_rejected(tmp_path):
    error = _error_of(tmp_path, "[suite]\nname = 'empty'\n")
    assert "no [[scenario]]" in error.reason


def test_unknown_suite_key(tmp_path):
    error = _error_of(
        tmp_path,
        "[suite]\nname = 'x'\ncolour = 'red'\n"
        "[[scenario]]\nworkload = 'dyn-bursty'\n",
    )
    assert "unknown [suite] key" in error.reason


def test_unknown_top_level_table(tmp_path):
    error = _error_of(
        tmp_path,
        "[[scenario]]\nworkload = 'dyn-bursty'\n[extras]\nfoo = 1\n",
    )
    assert "unknown top-level table" in error.reason


def test_unknown_scenario_key_names_the_scenario(tmp_path):
    error = _error_of(
        tmp_path,
        "[[scenario]]\nworkload = 'dyn-bursty'\n"
        "[[scenario]]\nworkload = 'dyn-bursty'\nfrobnicate = 1\n",
    )
    assert error.scenario == 1
    assert "frobnicate" in error.reason
    assert "[scenario 2]" in str(error)


def test_unknown_workload_lists_alternatives(tmp_path):
    error = _error_of(tmp_path, "[[scenario]]\nworkload = 'nope'\n")
    assert "unknown workload" in error.reason
    assert "dyn-bursty" in error.reason  # registry suggestions
    assert "fft" in error.reason  # app-profile suggestions


def test_unknown_config(tmp_path):
    error = _error_of(
        tmp_path,
        "[[scenario]]\nworkload = 'dyn-bursty'\nconfigs = ['Turbo']\n",
    )
    assert "unknown config 'Turbo'" in error.reason


def test_invalid_thread_count_for_workload(tmp_path):
    error = _error_of(
        tmp_path,
        "[[scenario]]\nworkload = 'reqstream-uniform'\nthreads = [1]\n",
    )
    assert "does not support nctx=1" in error.reason


def test_threads_above_machine_limit(tmp_path):
    error = _error_of(
        tmp_path,
        "[[scenario]]\nworkload = 'dyn-bursty'\nthreads = [99]\n",
    )
    assert "1.." in error.reason


def test_limit_config_rejected_for_message_passing(tmp_path):
    error = _error_of(
        tmp_path,
        "[[scenario]]\nworkload = 'reqstream-uniform'\n"
        "configs = ['Limit']\nthreads = [3]\n",
    )
    assert "limit study" in error.reason


def test_unknown_engine(tmp_path):
    error = _error_of(
        tmp_path,
        "[[scenario]]\nworkload = 'dyn-bursty'\nengine = 'warp'\n",
    )
    assert "unknown engine" in error.reason


def test_bad_scale_seed_and_tag_types(tmp_path):
    assert "'scale'" in _error_of(
        tmp_path, "[[scenario]]\nworkload = 'dyn-bursty'\nscale = -1\n"
    ).reason
    assert "'seed'" in _error_of(
        tmp_path, "[[scenario]]\nworkload = 'dyn-bursty'\nseed = 'x'\n"
    ).reason
    assert "'tag'" in _error_of(
        tmp_path, "[[scenario]]\nworkload = 'dyn-bursty'\ntag = 3\n"
    ).reason


def test_defaults_and_expansion(tmp_path):
    suite = load_suite(_write(
        tmp_path,
        "[[scenario]]\nworkload = 'dyn-bursty'\n",
    ))
    assert suite.name == "suite"  # falls back to the file stem
    jobs = expand_suite_jobs(suite)
    assert len(jobs) == 1
    job = jobs[0]
    assert (job.app, job.config.name, job.threads) == ("dyn-bursty", "Base", 2)
    assert job.engine == "reference"
    assert job.seed is None


def test_scenario_engine_overrides_default(tmp_path):
    suite = load_suite(_write(
        tmp_path,
        "[[scenario]]\nworkload = 'dyn-bursty'\nengine = 'reference'\n"
        "[[scenario]]\nworkload = 'dyn-decohere'\n",
    ))
    jobs = expand_suite_jobs(suite, default_engine="fast")
    assert jobs[0].engine == "reference"  # pinned by the scenario
    assert jobs[1].engine == "fast"  # inherits the default


def test_app_profiles_are_valid_suite_workloads(tmp_path):
    suite = load_suite(_write(
        tmp_path,
        "[[scenario]]\nworkload = 'fft'\nconfigs = ['Base', 'Limit']\n"
        "threads = [2, 4]\nscale = 0.1\n",
    ))
    jobs = expand_suite_jobs(suite)
    assert len(jobs) == 4
    assert all(job.tag == job.token == "" for job in jobs)  # no token


def test_trace_workload_job_is_content_addressed(tmp_path):
    """A trace scenario's job carries the trace digest as its token, not
    in its tag, which holds what the scenario declared."""
    from repro.harness.experiment import CONFIG_FACTORIES, CampaignJob
    from repro.workloads.record import record_trace

    trace = record_trace(
        CampaignJob("mcf", CONFIG_FACTORIES["Base"](), 2, scale=0.05),
        window=16,
    )
    path = trace.save(tmp_path / "mcf.trace.json")
    suite = load_suite(_write(
        tmp_path,
        f"[[scenario]]\nworkload = 'trace:{path}'\nthreads = [2]\n"
        f"[[scenario]]\nworkload = 'trace:{path}'\nthreads = [2]\n"
        "tag = 'livelock'\n",
    ))
    jobs = expand_suite_jobs(suite)
    assert len(jobs) == 2
    assert {job.token for job in jobs} == {f"trace@{trace.digest()[:12]}"}
    # simulate_job's fault injections read the tag as declared.
    assert [job.tag for job in jobs] == ["", "livelock"]
    # The token feeds the campaign cache key: two identical
    # expansions produce identical keys.
    again = expand_suite_jobs(load_suite(suite.path))
    assert job_key(jobs[0]) == job_key(again[0])
