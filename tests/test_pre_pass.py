"""The pre-dispatch pass's two products: spooled builds and stored reports.

A campaign's pass builds, lints and oracle-analyses each distinct
workload once.  Its workers pickle each build into a spool directory
that lives for one campaign, and the driver keeps only the paths.  Clean
lint verdicts and oracle reports are result-cache entries under the code
fingerprint, so a later campaign in any process reuses them.
"""

import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import redundancy
from repro.core.config import MMTConfig
from repro.harness import experiment
from repro.harness.campaign import ResultCache
from repro.harness.experiment import CampaignJob, run_points

JOBS = [
    CampaignJob("ammp", MMTConfig.base(), 2, scale=0.1),
    CampaignJob("ammp", MMTConfig.mmt_fxr(), 2, scale=0.1),
    CampaignJob("lu", MMTConfig.limit(), 2, scale=0.1),
]


@pytest.fixture(autouse=True)
def _isolated():
    experiment.clear_oracle_memo()
    yield
    experiment.clear_oracle_memo()


def _task(root, *, limits=(False,), spool=None, app="ammp", scale=0.1):
    return experiment.WorkloadCheck(
        app=app, threads=2, scale=scale, seed=None, hints=False,
        cache_root=str(root),
        limits=limits, spool=None if spool is None else str(spool),
    )


def _count_calls(monkeypatch, module, name):
    """Record each in-process call of ``module.name``."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _refuse(*args, **kwargs):
    raise AssertionError("called on a warm campaign")


def _use_fingerprint(monkeypatch, value):
    import repro.harness.campaign as campaign_mod

    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", value)
    monkeypatch.setattr(campaign_mod, "_FINGERPRINT", None)


# ------------------------------------------------------------------ spool
def test_a_pass_worker_returns_a_path_not_the_build(tmp_path):
    spool = tmp_path / "spool"
    spool.mkdir()
    checked = experiment.check_workload(
        _task(tmp_path / "cache", limits=(False, True), spool=spool,
              scale=1.0), 0,
    )
    assert isinstance(checked, experiment.WorkloadChecked)
    assert set(checked.reports) == {False, True}
    assert len(pickle.dumps(checked, pickle.HIGHEST_PROTOCOL)) < 4 * 1024
    path = Path(checked.build_path)
    assert path.parent == spool
    assert path.stat().st_size > 32 * 1024  # the build itself
    with path.open("rb") as handle:
        build = pickle.load(handle)
    assert build.program._digest == checked.digest  # memoised, not redone


def test_the_handoff_holds_paths_only_and_the_spool_goes(tmp_path,
                                                        monkeypatch):
    seen = []
    real = experiment.run_campaign

    def spy(jobs, runner, **kwargs):
        if runner is experiment.simulate_job:
            handoff = dict(experiment._HANDOFF)
            seen.append((experiment._SPOOL, handoff,
                         [Path(p).is_file() for p in handoff.values()]))
        return real(jobs, runner, **kwargs)

    monkeypatch.setattr(experiment, "run_campaign", spy)
    result = run_points(JOBS, workers=2, cache=tmp_path)
    assert all(o.ok for o in result.outcomes)
    assert result.validation_failures == []
    (spool, handoff, present), = seen
    assert set(handoff) == {("ammp", 2, 0.1, None, False),
                            ("lu", 2, 0.1, None, False)}
    assert all(isinstance(path, str) and Path(path).parent == Path(spool)
               for path in handoff.values())
    assert all(present)
    assert not Path(spool).exists()
    assert experiment._HANDOFF is None and experiment._SPOOL is None


def test_the_spool_goes_when_the_lint_gate_raises(tmp_path, monkeypatch):
    from types import SimpleNamespace

    from repro.isa.assembler import assemble
    from repro.isa.program import Program

    generate = experiment.build_workload

    def lu_fails_lint(profile, threads, scale=1.0, seed=None, hints=False):
        if profile.name != "lu":
            return generate(profile, threads, scale=scale, seed=seed,
                            hints=hints)
        code = assemble("add r1, r2, r3\nhalt")
        return SimpleNamespace(
            program=Program(code.instructions, name="broken-lu"),
            nctx=threads,
        )

    seen = []
    real = experiment.lint_campaign_jobs

    def spy(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        finally:
            spool = Path(experiment._SPOOL)
            seen.append((spool, sorted(spool.iterdir())))

    monkeypatch.setattr(experiment, "build_workload", lu_fails_lint)
    monkeypatch.setattr(experiment, "lint_campaign_jobs", spy)
    with pytest.raises(experiment.WorkloadLintError, match="broken-lu"):
        run_points(JOBS, workers=2, cache=tmp_path)
    (spool, files), = seen
    assert len(files) == 2  # both builds were spooled before the raise
    assert not spool.exists()
    assert experiment._HANDOFF is None and experiment._SPOOL is None


@pytest.mark.parametrize("damage", ["truncate", "delete"])
def test_an_unreadable_spool_file_means_a_fresh_build(tmp_path, monkeypatch,
                                                      damage):
    job = JOBS[1]
    expected = experiment.simulate_job(job, 0)
    builds = _count_calls(monkeypatch, experiment, "build_workload")
    with experiment.build_handoff():
        experiment.lint_campaign_jobs([job], cache_dir=tmp_path, workers=1)
        (path,) = experiment._HANDOFF.values()
        if damage == "truncate":
            Path(path).write_bytes(Path(path).read_bytes()[:100])
        else:
            Path(path).unlink()
        run = experiment.simulate_job(job, 0)
    assert len(builds) == 1  # the simulation's own build
    assert run.workload == expected.workload
    assert run.stats.__dict__ == expected.stats.__dict__
    assert run.outputs == expected.outputs


# -------------------------------------------------------- stored reports
def test_a_later_campaign_reuses_the_stored_reports_and_verdicts(tmp_path):
    """A second campaign on the same cache, in a fresh process where
    oracle analysis and lint raise, still validates every point."""
    first = run_points(JOBS, workers=2, cache=tmp_path)
    assert all(o.ok for o in first.outcomes)
    assert first.validation_failures == []

    script = textwrap.dedent("""
        import sys

        from repro.analysis import lint, redundancy
        from repro.core.config import MMTConfig
        from repro.harness import experiment
        from repro.harness.experiment import CampaignJob, run_points

        def refuse(*args, **kwargs):
            raise AssertionError("the pass analysed or linted again")

        redundancy.analyze_program = refuse
        lint.lint_program = refuse
        checked = []
        validate = redundancy.OracleReport.validate_against

        def counted(report, stats):
            checked.append(stats)
            return validate(report, stats)

        redundancy.OracleReport.validate_against = counted
        jobs = [
            CampaignJob("ammp", MMTConfig.base(), 2, scale=0.1),
            CampaignJob("ammp", MMTConfig.mmt_fxr(), 2, scale=0.1),
            CampaignJob("lu", MMTConfig.limit(), 2, scale=0.1),
        ]
        result = run_points(jobs, workers=2, cache=sys.argv[1])
        assert all(o.ok for o in result.outcomes), result.outcomes
        assert result.validation_failures == [], result.validation_failures
        assert len(checked) == 3, len(checked)
        assert len(experiment._ORACLE_MEMO) == 2
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_a_warm_campaign_builds_nothing_and_validates_every_hit(
    tmp_path, monkeypatch
):
    """When every point is a cache hit no pass runs: nothing is built,
    linted or analysed, and each hit is validated against the report
    its first campaign stored."""
    first = run_points(JOBS, workers=2, cache=tmp_path)
    assert first.validation_failures == []
    experiment.clear_oracle_memo()
    passes = _count_calls(monkeypatch, experiment, "lint_campaign_jobs")
    monkeypatch.setattr(experiment, "build_point", _refuse)
    monkeypatch.setattr(redundancy, "analyze_build", _refuse)
    checked = _count_calls(monkeypatch, redundancy.OracleReport,
                           "validate_against")
    again = run_points(JOBS, workers=2, cache=tmp_path)
    assert again.cache_hits == len(JOBS)
    assert passes == []
    assert len(checked) == len(JOBS)
    assert again.validation_failures == []
    assert len(experiment._ORACLE_MEMO) == 2


def test_a_deleted_stored_report_is_recomputed_and_stored_again(tmp_path,
                                                               monkeypatch):
    """A hit whose stored report is gone is still validated: the report
    is rebuilt, analysed and stored again."""
    first = run_points(JOBS[:1], workers=1, cache=tmp_path)
    assert first.validation_failures == []
    ref = first.outcomes[0].payload.workload
    key = experiment._oracle_key(ref.digest, ref.nctx, False)
    cache = ResultCache(tmp_path)
    report = cache.load(key)
    cache.path_for(key).unlink()
    experiment.clear_oracle_memo()
    analyses = _count_calls(monkeypatch, redundancy, "analyze_build")
    again = run_points(JOBS[:1], workers=1, cache=tmp_path)
    assert again.outcomes[0].from_cache
    assert again.validation_failures == []
    assert len(analyses) == 1
    assert cache.load(key) == report


def test_reports_and_verdicts_live_under_the_code_fingerprint(tmp_path,
                                                            monkeypatch):
    from repro.analysis import lint

    analyses = _count_calls(monkeypatch, redundancy, "analyze_build")
    lints = _count_calls(monkeypatch, lint, "lint_program")
    _use_fingerprint(monkeypatch, "code-one")
    first = experiment._check_workload(_task(tmp_path))
    again = experiment._check_workload(_task(tmp_path))
    assert (len(analyses), len(lints)) == (1, 1)
    assert again.diagnostics is None and again.reports == first.reports

    _use_fingerprint(monkeypatch, "code-two")
    other = experiment._check_workload(_task(tmp_path))
    assert (len(analyses), len(lints)) == (2, 2)
    assert other.diagnostics == [] and other.reports == first.reports
    assert {p.name for p in tmp_path.iterdir()} == {"code-one", "code-two"}


def test_a_truncated_report_or_verdict_is_redone_and_replaced(tmp_path,
                                                            monkeypatch):
    from repro.analysis import lint

    first = experiment._check_workload(_task(tmp_path))
    cache = ResultCache(tmp_path)
    report = cache.path_for(experiment._oracle_key(first.digest, 2, False))
    verdict = cache.path_for(experiment._lint_key(first.digest))
    for path in (report, verdict):
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])

    analyses = _count_calls(monkeypatch, redundancy, "analyze_build")
    lints = _count_calls(monkeypatch, lint, "lint_program")
    again = experiment._check_workload(_task(tmp_path))
    assert (len(analyses), len(lints)) == (1, 1)
    assert again.reports == first.reports
    assert cache.load(experiment._oracle_key(first.digest, 2, False)) == (
        first.reports[False]
    )
    assert cache.load(experiment._lint_key(first.digest)) is True


def test_a_foreign_report_or_verdict_is_redone_and_replaced(tmp_path,
                                                           monkeypatch):
    """Only what the pass stores counts: any other object under a
    verdict's or a report's key is a miss."""
    from repro.analysis import lint

    first = experiment._check_workload(_task(tmp_path))
    cache = ResultCache(tmp_path)
    report_key = experiment._oracle_key(first.digest, 2, False)
    verdict_key = experiment._lint_key(first.digest)
    for key in (report_key, verdict_key):
        cache.store(key, {"not": "a result"})

    analyses = _count_calls(monkeypatch, redundancy, "analyze_build")
    lints = _count_calls(monkeypatch, lint, "lint_program")
    again = experiment._check_workload(_task(tmp_path))
    assert (len(analyses), len(lints)) == (1, 1)
    assert again.diagnostics == [] and again.reports == first.reports
    assert cache.load(report_key) == first.reports[False]
    assert cache.load(verdict_key) is True


def test_more_workers_than_cores_store_shared_entries_once(tmp_path):
    """Six pass workers at once, three per program: each program is
    reported linted once, at its first workload, and every verdict and
    report they stored loads as what the pass returned."""
    apps, threads = ("ammp", "mcf"), (2, 3, 4)
    jobs = [CampaignJob(app, config, count, scale=0.2)
            for app in apps for count in threads
            for config in (MMTConfig.base(), MMTConfig.limit())]
    lines = []
    fresh = experiment.lint_campaign_jobs(
        jobs, cache_dir=tmp_path, progress=lines.append, workers=6,
        timeout=120,
    )
    assert fresh == 2
    assert lines == [f"lint {app}: {verdict}" for app in apps
                     for verdict in ("ok", "cached ok", "cached ok")]
    cache = ResultCache(tmp_path)
    digests = {experiment.build_point(app, 2, scale=0.2).program.digest()
               for app in apps}
    assert len(digests) == 2
    assert all(cache.load(experiment._lint_key(d)) is True for d in digests)
    assert len(experiment._ORACLE_MEMO) == 12
    for (digest, nctx, limit), report in experiment._ORACLE_MEMO.items():
        assert digest in digests
        assert cache.load(experiment._oracle_key(digest, nctx, limit)) == (
            report
        )
