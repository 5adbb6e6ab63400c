"""Campaign runner: caching, retries, per-job seed determinism."""

import dataclasses
import os
import time

import pytest

from repro.core.config import MMTConfig
from repro.harness.campaign import (
    ResultCache,
    code_fingerprint,
    derive_seed,
    job_key,
    run_campaign,
)
from repro.harness.experiment import CampaignJob, run_points
from repro.harness.results import (
    campaign_failure_rows,
    dump_campaign,
    summarize_campaign,
)


@dataclasses.dataclass(frozen=True)
class AddJob:
    a: int
    b: int

    def label(self):
        return f"add({self.a},{self.b})"


def add_runner(job, seed):
    return {"sum": job.a + job.b, "seed": seed}


def slow_runner(job, seed):
    time.sleep(60.0)
    return None  # pragma: no cover - always killed first


def flaky_or_slow_runner(job, seed):
    if getattr(job, "a", 0) < 0:
        time.sleep(60.0)
    return {"sum": job.a + job.b, "seed": seed}


def crash_runner(job, seed):
    raise RuntimeError(f"boom on {job.a}")


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "testfp")
    import repro.harness.campaign as campaign_mod

    monkeypatch.setattr(campaign_mod, "_FINGERPRINT", None)
    yield ResultCache(tmp_path / "cache")
    monkeypatch.setattr(campaign_mod, "_FINGERPRINT", None)


# ------------------------------------------------------------------ keying
def test_job_key_is_stable_and_config_sensitive():
    a = CampaignJob("ammp", MMTConfig.base(), 2)
    b = CampaignJob("ammp", MMTConfig.base(), 2)
    c = CampaignJob("ammp", MMTConfig.mmt_fxr(), 2)
    assert job_key(a) == job_key(b)
    assert job_key(a) != job_key(c)
    assert job_key(a) != job_key(a, add_runner)  # runner identity mixed in


def test_fast_job_keys_need_no_workload_build():
    """Fast-engine jobs key on their fields alone, like reference jobs:
    keying the 64 Fig 6 points in a fresh process builds no workload."""
    import subprocess
    import sys
    import textwrap
    from pathlib import Path

    script = textwrap.dedent("""
        from dataclasses import replace

        from repro.harness import campaign, experiment, figure_points

        def no_build(*args, **kwargs):
            raise AssertionError("job keying built a workload")

        experiment.build_point = no_build
        jobs = [replace(job, engine="fast") for job in figure_points("fig6")]
        keys = {campaign.job_key(job, experiment.simulate_job) for job in jobs}
        assert len(jobs) == len(keys) == 64, (len(jobs), len(keys))
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_each_figure_point_has_one_job_key():
    """fig7b and fig7d spell out the default 4-thread machine where fig5c
    and fig6 leave it ``None``; both spellings make one job, so the
    figure union has as many job keys as distinct jobs."""
    from repro.harness import experiment, figure_points
    from repro.pipeline.config import MachineConfig

    figures = ("fig5a", "fig5b", "fig5c", "fig5d", "fig6",
               "fig7a", "fig7b", "fig7c", "fig7d")
    jobs = [job for fig in figures for job in figure_points(fig)]
    assert len(jobs) == 720
    assert len({job_key(job, experiment.simulate_job) for job in jobs}) == 448
    assert len(set(jobs)) == 448
    assert all(job.machine is None for job in figure_points("fig6"))

    spelled = CampaignJob("ammp", MMTConfig.base(), 4,
                          machine=MachineConfig(num_threads=4))
    narrow = CampaignJob("ammp", MMTConfig.base(), 4,
                         machine=MachineConfig(num_threads=2))
    wide = MachineConfig(num_threads=4).with_fetch_width(4)
    other = CampaignJob("ammp", MMTConfig.base(), 4, machine=wide)
    assert spelled == narrow == CampaignJob("ammp", MMTConfig.base(), 4)
    assert other.machine == wide and other != spelled


def test_derive_seed_pure_function():
    key = job_key(AddJob(1, 2))
    assert derive_seed(0, key) == derive_seed(0, key)
    assert derive_seed(0, key) != derive_seed(1, key)


# ------------------------------------------------------------------- cache
def test_second_run_hits_cache_for_identical_jobs(cache):
    jobs = [AddJob(i, i + 1) for i in range(4)]
    first = run_campaign(jobs, add_runner, workers=2, cache=cache)
    assert first.cache_hits == 0 and first.cache_misses == 4
    assert [o.payload["sum"] for o in first.outcomes] == [1, 3, 5, 7]

    second = run_campaign(jobs, add_runner, workers=2, cache=cache)
    assert second.cache_hits == 4 and second.cache_misses == 0
    assert all(o.from_cache for o in second.outcomes)
    assert [o.payload["sum"] for o in second.outcomes] == [1, 3, 5, 7]


def test_changed_job_misses_cache(cache):
    run_campaign([AddJob(1, 2)], add_runner, workers=1, cache=cache)
    changed = run_campaign([AddJob(1, 3)], add_runner, workers=1, cache=cache)
    assert changed.cache_hits == 0 and changed.cache_misses == 1


def test_use_cache_false_never_touches_disk(cache):
    result = run_campaign([AddJob(5, 5)], add_runner, workers=1,
                          cache=cache, use_cache=False)
    assert result.cache_hits == result.cache_misses == 0
    assert job_key(AddJob(5, 5), add_runner) not in cache


def test_cache_partitioned_by_code_fingerprint(cache, monkeypatch):
    import repro.harness.campaign as campaign_mod

    run_campaign([AddJob(1, 1)], add_runner, workers=1, cache=cache)
    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "otherfp")
    monkeypatch.setattr(campaign_mod, "_FINGERPRINT", None)
    rerun = run_campaign([AddJob(1, 1)], add_runner, workers=1, cache=cache)
    assert rerun.cache_hits == 0 and rerun.cache_misses == 1


def test_concurrent_stores_of_same_key_never_collide(cache):
    import threading

    key = job_key(AddJob(9, 9), add_runner)
    errors = []

    def writer():
        try:
            for _ in range(25):
                cache.store(key, {"sum": 18})
        except Exception as exc:  # pragma: no cover - the regression
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert cache.load(key) == {"sum": 18}
    assert not list(cache.path_for(key).parent.glob("*.tmp"))


def test_corrupt_cache_entry_is_a_miss(cache):
    key = job_key(AddJob(2, 2), add_runner)
    path = cache.store(key, {"sum": 4})
    path.write_bytes(b"not a pickle")
    assert cache.load(key) is None
    assert key not in cache  # corrupt entry removed


# ------------------------------------------------------- timeout and retry
def test_hanging_job_times_out_and_is_reported_not_fatal(cache):
    jobs = [AddJob(1, 1), AddJob(-1, 0), AddJob(2, 2)]
    result = run_campaign(jobs, flaky_or_slow_runner, workers=3,
                          timeout=0.5, retries=1, cache=cache)
    ok = [o for o in result.outcomes if o.ok]
    hung = [o for o in result.outcomes if o.status == "timeout"]
    assert len(ok) == 2 and len(hung) == 1
    assert hung[0].attempts == 2  # original + one retry
    assert result.retries == 1
    assert "timed out" in hung[0].error
    assert sorted(o.payload["sum"] for o in ok) == [2, 4]


def test_crashing_job_reports_error(cache):
    result = run_campaign([AddJob(7, 0)], crash_runner, workers=1,
                          retries=0, cache=cache)
    outcome = result.outcomes[0]
    assert outcome.status == "failed"
    assert "boom on 7" in outcome.error
    assert not result.completed and len(result.failures) == 1


def test_zero_jobs_is_a_noop(cache):
    result = run_campaign([], add_runner, cache=cache)
    assert result.jobs == 0 and result.summary()["jobs"] == 0


# ------------------------------------------------------- seed determinism
def test_seeds_identical_across_worker_counts(cache):
    jobs = [AddJob(i, 0) for i in range(6)]
    serial = run_campaign(jobs, add_runner, workers=1, use_cache=False,
                          campaign_seed=42)
    fanned = run_campaign(jobs, add_runner, workers=4, use_cache=False,
                          campaign_seed=42)
    assert [o.seed for o in serial.outcomes] == [o.seed for o in fanned.outcomes]
    # ... and the workers actually received those seeds.
    assert [o.payload["seed"] for o in serial.outcomes] == \
        [o.payload["seed"] for o in fanned.outcomes]
    assert len({o.seed for o in serial.outcomes}) == len(jobs)


def test_cached_outcome_keeps_seed(cache):
    jobs = [AddJob(3, 4)]
    first = run_campaign(jobs, add_runner, workers=1, cache=cache,
                         campaign_seed=7)
    second = run_campaign(jobs, add_runner, workers=1, cache=cache,
                          campaign_seed=7)
    assert second.outcomes[0].from_cache
    assert second.outcomes[0].seed == first.outcomes[0].seed


# ------------------------------------------------------------- aggregation
def test_summarize_and_dump_campaign(cache, tmp_path):
    jobs = [AddJob(1, 1), AddJob(-1, 0)]
    result = run_campaign(jobs, flaky_or_slow_runner, workers=2,
                          timeout=0.4, retries=0, cache=cache)
    summary = summarize_campaign(result)
    assert summary["jobs"] == 2
    assert summary["ok"] == 1
    assert summary["timeout"] == 1
    assert summary["cache_misses"] == 2
    assert summary["job_wall_max"] >= summary["job_wall_mean"] >= 0

    rows = campaign_failure_rows(result)
    assert len(rows) == 1 and rows[0]["status"] == "timeout"

    out = tmp_path / "campaign.json"
    dump_campaign(result, out)
    import json

    data = json.loads(out.read_text())
    assert data["summary"]["jobs"] == 2
    assert len(data["jobs"]) == 2
    statuses = {record["status"] for record in data["jobs"]}
    assert statuses == {"ok", "timeout"}


def test_progress_lines_streamed(cache):
    lines = []
    run_campaign([AddJob(1, 2), AddJob(3, 4)], add_runner, workers=2,
                 cache=cache, progress=lines.append)
    assert len(lines) == 2
    assert all("add(" in line for line in lines)


def test_a_result_sent_just_before_the_worker_exits_is_kept(cache,
                                                            monkeypatch):
    """A worker that sends its result and exits between the driver's
    poll of its pipe and its liveness check has finished, not died."""
    import multiprocessing
    from multiprocessing.connection import Connection

    real_poll = Connection.poll
    polled = set()

    def late_poll(self, timeout=0.0):
        if id(self) in polled:
            return real_poll(self, timeout)
        polled.add(id(self))
        # The worker sends and exits while the driver is between calls.
        deadline = time.monotonic() + 30
        while multiprocessing.active_children():
            assert time.monotonic() < deadline
            time.sleep(0.01)
        return False

    monkeypatch.setattr(Connection, "poll", late_poll)
    lines = []
    result = run_campaign([AddJob(1, 2)], add_runner, workers=1, retries=0,
                          cache=cache, progress=lines.append)
    outcome = result.outcomes[0]
    assert outcome.ok, outcome.error
    assert outcome.payload["sum"] == 3
    assert len(lines) == 1 and "worker died" not in lines[0]


# ------------------------------------------------- simulation integration
def test_code_fingerprint_env_override(monkeypatch):
    import repro.harness.campaign as campaign_mod

    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "abc123")
    monkeypatch.setattr(campaign_mod, "_FINGERPRINT", None)
    assert code_fingerprint() == "abc123"
    monkeypatch.setattr(campaign_mod, "_FINGERPRINT", None)


# --------------------------------------------------- rss + failure dumps
def test_outcomes_record_worker_rss(cache):
    result = run_campaign([AddJob(1, 1)], add_runner, workers=1, cache=cache)
    outcome = result.outcomes[0]
    # RSS is normalised to bytes on every platform; a real worker process
    # is comfortably past 1 MiB.
    assert outcome.max_rss_bytes > 1024 * 1024
    assert (
        summarize_campaign(result)["job_rss_max_bytes"]
        >= outcome.max_rss_bytes
    )
    # The driver's own peak, which holds every result, is recorded too.
    assert result.driver_max_rss_bytes > 1024 * 1024
    assert (
        summarize_campaign(result)["driver_rss_max_bytes"]
        == result.driver_max_rss_bytes
    )

    # A cache hit replays the RSS recorded when the entry was produced.
    second = run_campaign([AddJob(1, 1)], add_runner, workers=1, cache=cache)
    assert second.outcomes[0].from_cache
    assert second.outcomes[0].max_rss_bytes == outcome.max_rss_bytes


def test_livelocked_job_leaves_flight_dump(cache, tmp_path):
    from repro.harness.experiment import simulate_job
    from repro.obs import load_dump

    job = CampaignJob("ammp", MMTConfig.base(), 2, scale=0.1, tag="livelock")
    result = run_campaign([job], simulate_job, workers=1, retries=0,
                          cache=cache, failure_dump_dir=tmp_path / "flight")
    outcome = result.outcomes[0]
    assert outcome.status == "failed"
    assert "WatchdogError" in outcome.error
    assert outcome.dump_path and outcome.dump_path.endswith(".flight.json")
    document = load_dump(outcome.dump_path)
    assert document["committed_thread_insts"] == 0
    assert document["events"][-1]["kind"] == "watchdog"
    # The failure report row surfaces the dump path.
    rows = campaign_failure_rows(result)
    assert rows[0]["dump"] == outcome.dump_path


def test_livelocked_fast_engine_job_leaves_flight_dump(cache, tmp_path):
    """The watchdog + flight recorder fire from *inside* the fast loop:
    a fast-engine campaign job that livelocks leaves the same dump a
    reference job would, and the dump replays (satellite: oracle gate on
    the replay path)."""
    from repro.harness.experiment import replay_dump, simulate_job
    from repro.obs import load_dump

    job = CampaignJob("ammp", MMTConfig.base(), 2, scale=0.1,
                      tag="livelock", engine="fast")
    result = run_campaign([job], simulate_job, workers=1, retries=0,
                          cache=cache, failure_dump_dir=tmp_path / "flight")
    outcome = result.outcomes[0]
    assert outcome.status == "failed"
    assert "WatchdogError" in outcome.error
    assert outcome.dump_path and outcome.dump_path.endswith(".flight.json")
    document = load_dump(outcome.dump_path)
    assert document["committed_thread_insts"] == 0
    assert document["events"][-1]["kind"] == "watchdog"
    # The dump embeds the job spec, so the post-mortem replay runs the
    # same point (healthy: the injected fault is not part of the spec)
    # and passes the oracle + reconciliation gate.
    assert document["job"]["engine"] == "fast"
    replay = replay_dump(outcome.dump_path)
    assert replay.ok, replay.problems
    assert replay.spec["app"] == "ammp"
    assert replay.run.stats.committed_thread_insts > 0


def test_replay_rejects_spec_less_dump(tmp_path):
    """Dumps from before spec embedding raise instead of replaying the
    wrong point."""
    import json

    from repro.harness.experiment import replay_dump

    path = tmp_path / "old.flight.json"
    path.write_text(json.dumps({"events": [], "error": "boom"}))
    with pytest.raises(ValueError, match="no job spec"):
        replay_dump(path)


def test_replay_accepts_dump_with_legacy_specialize_key(tmp_path):
    """Dumps written while jobs carried ``specialize`` and ``strict``
    flags still replay: the spec keys are ignored."""
    import json

    from repro.harness.experiment import replay_dump

    path = tmp_path / "legacy.flight.json"
    spec = {"app": "ammp", "config": "Base", "threads": 2, "scale": 0.1,
            "strict": True, "engine": "fast", "seed": None,
            "specialize": True}
    path.write_text(json.dumps({"events": [], "error": "boom", "job": spec}))
    replay = replay_dump(path)
    assert replay.ok, replay.problems
    assert replay.spec["specialize"] is True
    assert replay.spec["strict"] is True
    assert replay.run.stats.committed_thread_insts > 0


def test_successful_job_has_no_dump(cache, tmp_path):
    result = run_campaign([AddJob(4, 4)], add_runner, workers=1, cache=cache,
                          failure_dump_dir=tmp_path / "flight")
    outcome = result.outcomes[0]
    assert outcome.ok and outcome.dump_path is None
    assert not list((tmp_path / "flight").glob("*.flight.json"))


# --------------------------------------------------- oracle validation gate
def test_run_points_validates_against_oracle(tmp_path, monkeypatch):
    """Every successful simulation is cross-checked at aggregation time."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    points = [
        CampaignJob("ammp", MMTConfig.mmt_fxr(), 2, scale=0.1),
        CampaignJob("canneal", MMTConfig.base(), 2, scale=0.1),
    ]
    result = run_points(points, workers=2)
    assert all(o.ok for o in result.outcomes)
    assert result.validation_failures == []
    assert summarize_campaign(result)["oracle_violations"] == 0


def test_validation_flags_a_corrupted_result(tmp_path, monkeypatch):
    """A payload contradicting a static bound becomes a structured
    campaign failure (this is what catches stale/corrupt cached results
    and simulator regressions)."""
    from repro.harness import experiment
    from repro.harness.results import campaign_violation_rows

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    result = run_points(
        [CampaignJob("ammp", MMTConfig.mmt_fxr(), 2, scale=0.1)], workers=1
    )
    assert result.validation_failures == []
    # Corrupt the payload: pretend the LVIP checked a PC the static
    # analysis says hosts no load.
    payload = result.outcomes[0].payload
    payload.stats.lvip_site_checks = dict(payload.stats.lvip_site_checks)
    payload.stats.lvip_site_checks[999_999] = 1
    violations = experiment.validate_campaign_result(result)
    assert len(violations) == 1
    violation = violations[0]
    assert violation.workload == payload.workload.name
    assert violation.config == "MMT-FXR"
    assert any("999999" in p for p in violation.problems)
    rows = campaign_violation_rows(result)
    assert rows and rows[0]["config"] == "MMT-FXR"
    assert summarize_campaign(result)["oracle_violations"] == 1


def test_validation_skips_non_simulation_payloads(cache):
    """Custom runners' payloads pass through the gate untouched."""
    from repro.harness import experiment

    result = run_campaign([AddJob(2, 3)], add_runner, workers=1, cache=cache)
    violations = experiment.validate_campaign_result(result)
    assert violations == []


def test_oracle_memo_reuses_reports(tmp_path, monkeypatch):
    """One analysis per distinct (program, nctx, limit), not per job."""
    from repro.harness import experiment

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    experiment.clear_oracle_memo()
    result = run_points(
        [
            CampaignJob("ammp", MMTConfig.base(), 2, scale=0.1),
            CampaignJob("ammp", MMTConfig.mmt_fxr(), 2, scale=0.1),
        ],
        workers=2,
    )
    assert result.validation_failures == []
    assert len(experiment._ORACLE_MEMO) == 1
    report = experiment.oracle_for_run(result.outcomes[0].payload)
    assert report is experiment.oracle_for_run(result.outcomes[1].payload)
    experiment.clear_oracle_memo()

# --------------------------------------- fast-engine jobs through the gate
def test_fast_engine_results_validated_including_cache_hits(
    tmp_path, monkeypatch
):
    """Fast-engine campaign results flow through the oracle gate exactly
    like reference ones — fresh *and* served from the on-disk cache (a
    stale cached result from a buggy fast-engine version is precisely
    what the aggregation-time cross-check exists to catch)."""
    from repro.harness import experiment

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    points = [
        CampaignJob("ammp", MMTConfig.mmt_fxr(), 2, scale=0.1, engine="fast"),
        CampaignJob("lu", MMTConfig.base(), 2, scale=0.1, engine="fast"),
    ]
    first = run_points(points, workers=2)
    assert all(o.ok and not o.from_cache for o in first.outcomes)
    assert first.validation_failures == []

    second = run_points(points, workers=2)
    assert all(o.ok and o.from_cache for o in second.outcomes)
    assert second.validation_failures == []

    # Corrupt one cached payload: the gate must flag it even though the
    # simulation never re-ran.
    payload = second.outcomes[0].payload
    payload.stats.lvip_site_checks = dict(payload.stats.lvip_site_checks)
    payload.stats.lvip_site_checks[999_999] = 1
    violations = experiment.validate_campaign_result(second)
    assert len(violations) == 1
    assert any("999999" in p for p in violations[0].problems)


def test_engines_never_share_cache_entries_or_memo_keys(tmp_path, monkeypatch):
    """The engine is part of both the on-disk cache key and the job's
    identity, so a fast-engine bug can never poison reference results."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    ref = CampaignJob("fft", MMTConfig.base(), 2, scale=0.1)
    fast = dataclasses.replace(ref, engine="fast")
    assert job_key(ref) != job_key(fast)
    assert ref != fast

    result = run_points([ref, fast], workers=2)
    assert all(o.ok for o in result.outcomes)
    assert result.validation_failures == []
    by_engine = {o.job.engine: o.payload for o in result.outcomes}
    # Cycle-exact across the campaign path too.
    assert (
        by_engine["fast"].stats.__dict__ == by_engine["reference"].stats.__dict__
    )


# ------------------------------------------------------ dispatch and pool
def interval_runner(job, seed):
    started = time.time()
    time.sleep(0.05)
    return (started, time.time())


def exit_runner(job, seed):
    os._exit(3)


def test_finished_attempts_refill_their_slot_at_once():
    """Dispatch waits on the workers, not a sleep: with no timeout armed
    the poll interval never delays a result."""
    started = time.perf_counter()
    result = run_campaign([AddJob(i, i) for i in range(10)], add_runner,
                          workers=1, use_cache=False, poll_interval=5)
    assert time.perf_counter() - started < 2.5
    assert [o.payload["sum"] for o in result.outcomes] == [
        2 * i for i in range(10)
    ]


def test_worker_exiting_without_a_result_is_reported():
    result = run_campaign([AddJob(1, 1)], exit_runner, workers=1,
                          retries=1, use_cache=False)
    outcome = result.outcomes[0]
    assert outcome.status == "failed" and outcome.attempts == 2
    assert outcome.error == "worker died (exitcode 3)"


def test_default_workers_honour_cpu_affinity(monkeypatch):
    """One allowed CPU means one worker, however many the host has: no
    two jobs overlap in time."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    result = run_campaign([AddJob(i, 0) for i in range(4)], interval_runner,
                          use_cache=False)
    spans = sorted(o.payload for o in result.outcomes)
    assert len(spans) == 4
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert start >= end


def test_default_workers_fall_back_to_cpu_count(monkeypatch):
    from repro.harness.campaign import default_workers

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert default_workers() == 3


# ------------------------------------------------- pre-dispatch pass
def _lint_failing_build(app, threads, scale=1.0, seed=None, hints=False):
    """A build whose program reads two registers nothing defines."""
    from types import SimpleNamespace

    from repro.isa.assembler import assemble
    from repro.isa.program import Program

    code = assemble("add r1, r2, r3\nhalt")
    return SimpleNamespace(
        program=Program(code.instructions, name=f"broken-{app}"), nctx=threads
    )


def test_lint_failure_stops_the_campaign_before_dispatch(tmp_path,
                                                         monkeypatch):
    from repro.analysis.lint import lint_program
    from repro.harness import experiment

    monkeypatch.setattr(experiment, "build_point", _lint_failing_build)
    program = _lint_failing_build("ammp", 2).program
    expected = str(experiment.WorkloadLintError(program.name,
                                                lint_program(program)))
    cache_root = tmp_path / "simcache"
    with pytest.raises(experiment.WorkloadLintError) as info:
        run_points([CampaignJob("ammp", MMTConfig.base(), 2, scale=0.1),
                    CampaignJob("lu", MMTConfig.base(), 2, scale=0.1)],
                   workers=2, cache=cache_root)
    assert str(info.value) == expected  # the first workload, in job order
    assert not list(cache_root.rglob("*.pkl"))
    assert not list(cache_root.rglob("*.jsonl"))


def test_cli_campaign_exits_2_on_lint_failure(tmp_path, monkeypatch, capsys):
    from repro.harness import experiment
    from repro.harness.cli import main

    monkeypatch.setattr(experiment, "build_point", _lint_failing_build)
    code = main(["campaign", "--apps", "ammp", "--configs", "Base",
                 "--threads", "2", "--workers", "1", "--scale", "0.1",
                 "--cache-dir", str(tmp_path)])
    assert code == 2
    assert "campaign aborted: workload 'broken-ammp' failed static lint" in (
        capsys.readouterr().out
    )
    assert experiment._HANDOFF is None


def test_unknown_app_raises_as_before(tmp_path):
    with pytest.raises(KeyError, match="unknown application 'no-such-app'"):
        run_points([CampaignJob("no-such-app", MMTConfig.base(), 2)],
                   workers=1, cache=tmp_path)


def test_unpicklable_build_error_keeps_its_type(tmp_path, monkeypatch):
    """An exception whose constructor pickling cannot replay is raised by
    repeating the check in the driver."""
    from repro.harness import experiment
    from repro.isa.assembler import AssemblyError

    def bad_build(app, threads, scale=1.0, seed=None, hints=False):
        raise AssemblyError(7, "Lmissing", "undefined label 'Lmissing'")

    monkeypatch.setattr(experiment, "build_point", bad_build)
    with pytest.raises(AssemblyError) as info:
        run_points([CampaignJob("ammp", MMTConfig.base(), 2)], workers=1,
                   cache=tmp_path)
    assert info.value.symbol == "Lmissing" and info.value.lineno == 7


def test_dead_pre_pass_worker_fails_the_gate(tmp_path, monkeypatch):
    from repro.harness import experiment

    def dying_build(app, threads, scale=1.0, seed=None, hints=False):
        os._exit(5)

    monkeypatch.setattr(experiment, "build_point", dying_build)
    with pytest.raises(RuntimeError, match=r"ammp/2t failed: worker died"):
        run_points([CampaignJob("ammp", MMTConfig.base(), 2)], workers=1,
                   cache=tmp_path)


def test_pre_pass_seeds_the_oracle_memo(tmp_path, monkeypatch):
    """One report per distinct (digest, nctx, limit), equal to the serial
    analysis, and none computed in the driver."""
    from repro.analysis import redundancy
    from repro.harness import experiment

    driver_analyses = []  # forked workers append to their own copies
    analyze = redundancy.analyze_build

    def counted(build, limit=False):
        driver_analyses.append(limit)
        return analyze(build, limit)

    monkeypatch.setattr(redundancy, "analyze_build", counted)
    experiment.clear_oracle_memo()
    jobs = [CampaignJob(app, config, 2, scale=0.1)
            for app in ("ammp", "lu")
            for config in (MMTConfig.base(), MMTConfig.mmt_fxr(),
                           MMTConfig.limit())]
    result = run_points(jobs, workers=2, cache=tmp_path)
    assert all(o.ok for o in result.outcomes)
    assert result.validation_failures == []
    assert driver_analyses == []
    expected = {}
    for app in ("ammp", "lu"):
        build = experiment.build_point(app, 2, scale=0.1)
        key = (build.program.digest(), build.nctx)
        expected[(*key, False)] = analyze(build)
        expected[(*key, True)] = analyze(build, limit=True)
    assert experiment._ORACLE_MEMO == expected
    experiment.clear_oracle_memo()


# ------------------------------------- workload hand-off and references
def _no_generator(*args, **kwargs):
    raise RuntimeError("workload generator called")


def test_simulation_payload_references_its_workload():
    """A result names its workload instead of carrying the build, so the
    pickled payload stays a few KiB (the build alone is ~100 KiB)."""
    import pickle

    from repro.harness import experiment

    job = CampaignJob("canneal", MMTConfig.mmt_fxr(), 2, scale=0.1)
    run = experiment.simulate_job(job, 0)
    assert len(pickle.dumps(run)) < 16 * 1024
    build = experiment.build_point("canneal", 2, scale=0.1)
    assert run.workload == experiment.WorkloadRef(
        build.program.name, build.program.digest(), build.nctx,
        "canneal", 2, 0.1, None, False,
    )


def test_simulation_workers_reuse_the_pass_builds(tmp_path, monkeypatch):
    """Inside a hand-off scope the simulation workers unpickle the
    pre-dispatch pass's builds instead of running the generator, with
    the results of fresh builds; once the scope ends they build again."""
    from repro.harness import experiment

    jobs = [CampaignJob("ammp", MMTConfig.base(), 2, scale=0.1),
            CampaignJob("ammp", MMTConfig.mmt_fxr(), 2, scale=0.1)]
    expected = [experiment.simulate_job(job, 0) for job in jobs]
    with experiment.build_handoff():
        experiment.lint_campaign_jobs(jobs, cache_dir=tmp_path, workers=1)
        monkeypatch.setattr(experiment, "build_workload", _no_generator)
        result = run_campaign(jobs, experiment.simulate_job, workers=2,
                              use_cache=False)
    assert [o.status for o in result.outcomes] == ["ok", "ok"]
    for run, outcome in zip(expected, result.outcomes):
        assert outcome.payload.stats.__dict__ == run.stats.__dict__
        assert outcome.payload.outputs == run.outputs
        assert outcome.payload.workload == run.workload
    after = run_campaign(jobs[:1], experiment.simulate_job, workers=1,
                         retries=0, use_cache=False)
    assert "workload generator called" in after.outcomes[0].error


def test_run_points_keeps_no_build_after_return_or_raise(tmp_path,
                                                        monkeypatch):
    from repro.harness import experiment

    clean = CampaignJob("ammp", MMTConfig.base(), 2, scale=0.1)
    result = run_points([clean], workers=1, cache=tmp_path / "a")
    assert result.outcomes[0].ok and experiment._HANDOFF is None

    generate = experiment.build_workload

    def lu_fails_lint(profile, threads, scale=1.0, seed=None, hints=False):
        if profile.name == "lu":
            return _lint_failing_build(profile.name, threads)
        return generate(profile, threads, scale=scale, seed=seed, hints=hints)

    # The pass hands over ammp's build before lu's diagnostics abort it.
    monkeypatch.setattr(experiment, "build_workload", lu_fails_lint)
    with pytest.raises(experiment.WorkloadLintError, match="broken-lu"):
        run_points([clean, CampaignJob("lu", MMTConfig.base(), 2, scale=0.1)],
                   workers=1, cache=tmp_path / "b")
    assert experiment._HANDOFF is None
    monkeypatch.setattr(experiment, "build_workload", _no_generator)
    after = run_campaign([clean], experiment.simulate_job, workers=1,
                         retries=0, use_cache=False)
    assert "workload generator called" in after.outcomes[0].error


def test_reregistered_workload_is_rebuilt_by_the_next_campaign(tmp_path,
                                                               monkeypatch):
    """A later campaign in the same process never simulates a build an
    earlier one made: after the name is re-registered with another
    program, results reference the new program, with or without a
    pre-dispatch pass."""
    from repro.harness import experiment
    from repro.workloads import engine

    monkeypatch.setattr(engine, "_REGISTRY", dict(engine._REGISTRY))
    name = "handoff-probe"
    job = CampaignJob(name, MMTConfig.base(), 2, scale=0.2)
    digests = []
    for common_ops in (18, 10):
        engine.register_workload(
            engine.DynamicWorkload(
                name, (engine.Phase("lockstep"),),
                engine._dynamic_profile(name, common_ops=common_ops),
            ),
            replace=True,
        )
        digest = experiment.build_point(name, 2, scale=0.2).program.digest()
        result = run_points([job], workers=1, cache=tmp_path,
                            use_cache=False)
        assert result.outcomes[0].ok and result.validation_failures == []
        assert result.outcomes[0].payload.workload.digest == digest
        digests.append(digest)
    assert digests[0] != digests[1]

    bare = run_campaign([job], experiment.simulate_job, workers=1,
                        use_cache=False)
    assert bare.outcomes[0].payload.workload.digest == digests[1]


def test_validation_rebuilds_workloads_without_the_pass():
    """With no pre-dispatch pass and an empty oracle memo, validation
    rebuilds each workload from its reference; a reference whose digest
    the rebuild does not reproduce is one violation, not a check against
    another program."""
    from repro.harness import experiment

    jobs = [CampaignJob("ammp", MMTConfig.mmt_fxr(), 2, scale=0.1),
            CampaignJob("lu", MMTConfig.limit(), 2, scale=0.1)]
    result = run_campaign(jobs, experiment.simulate_job, workers=2,
                          use_cache=False)
    assert all(o.ok for o in result.outcomes)
    experiment.clear_oracle_memo()
    assert experiment.validate_campaign_result(result) == []
    assert len(experiment._ORACLE_MEMO) == 2

    experiment.clear_oracle_memo()
    payload = result.outcomes[0].payload
    payload.workload = dataclasses.replace(payload.workload, digest="0" * 64)
    violations = experiment.validate_campaign_result(result)
    assert len(violations) == 1
    assert violations[0].workload == "ammp"
    assert "rebuilds as program" in violations[0].problems[0]
    experiment.clear_oracle_memo()


# ------------------------------------------------------ one campaign path
def test_pass_wall_time_is_recorded_beside_the_dispatch(tmp_path):
    """``wall_time`` is the dispatch alone; the pre-dispatch phase has its
    own figure, in the result and in its summary, also when every point
    is a cache hit and so no workload needs the pass."""
    jobs = [CampaignJob("ammp", MMTConfig.base(), 2, scale=0.1)]
    result = run_points(jobs, workers=1, cache=tmp_path)
    assert result.outcomes[0].ok
    assert result.pass_wall_time > 0
    assert summarize_campaign(result)["pass_wall_time"] == (
        result.pass_wall_time
    )
    bare = run_points(jobs, workers=1, cache=tmp_path)
    assert bare.outcomes[0].from_cache
    assert bare.pass_wall_time > 0
    assert summarize_campaign(bare)["pass_wall_time"] == bare.pass_wall_time


@pytest.mark.parametrize("foreign", [
    {"not": "a result"},
    # A wrapper whose cost is in the retired ``max_rss_kb`` field.
    {"__campaign__": 1, "payload": "stale", "wall_time": 1.0,
     "max_rss_kb": 1},
])
def test_a_foreign_cache_entry_is_rerun_validated_and_replaced(tmp_path,
                                                              foreign):
    """Only an entry the campaign wrote is a result: any other object
    under a job's key is a miss, which is simulated, validated against
    the oracle, read by the figures as the campaign's result and
    overwritten."""
    from repro.harness import experiment
    from repro.harness.figures import results_of

    cache = ResultCache(tmp_path)
    job = CampaignJob("ammp", MMTConfig.base(), 2, scale=0.1)
    key = job_key(job, experiment.simulate_job)
    cache.store(key, foreign)
    result = run_points([job], workers=1, cache=cache)
    outcome = result.outcomes[0]
    assert outcome.ok and not outcome.from_cache
    assert isinstance(outcome.payload, experiment.RunResult)
    assert (result.cache_hits, result.cache_misses) == (0, 1)
    assert result.validation_failures == []
    assert results_of(result)[job] is outcome.payload
    entry = cache.load(key)
    assert entry["__campaign__"] == 1
    assert isinstance(entry["payload"], experiment.RunResult)
    again = run_points([job], workers=1, cache=cache)
    assert again.outcomes[0].from_cache
