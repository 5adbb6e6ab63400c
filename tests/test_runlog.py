"""Campaign run-log (JSONL lifecycle)."""

import dataclasses
import json

import pytest

from repro.harness.campaign import ResultCache, run_campaign
from repro.harness.results import summarize_campaign
from repro.obs.runlog import RunLog, read_runlog


@dataclasses.dataclass(frozen=True)
class AddJob:
    a: int
    b: int

    def label(self):
        return f"add({self.a},{self.b})"


def add_runner(job, seed):
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


# ----------------------------------------------------------------- runlog
def test_runlog_appends_flushed_jsonl(tmp_path):
    path = tmp_path / "log" / "events.jsonl"
    with RunLog(path) as log:
        log.emit("campaign_begin", jobs=3)
        # Flushed per event: readable before close.
        assert read_runlog(path)[0]["event"] == "campaign_begin"
        log.emit("job_finished", job="x", wall_s=1.5)
    log.emit("after_close")  # no-op, not an error
    records = read_runlog(path)
    assert [r["event"] for r in records] == ["campaign_begin", "job_finished"]
    assert all("ts" in r for r in records)
    assert records[1]["wall_s"] == 1.5


def test_campaign_writes_lifecycle_log(cache):
    jobs = [AddJob(1, 1), AddJob(2, 2)]
    result = run_campaign(jobs, add_runner, workers=2, cache=cache)
    assert result.runlog_path
    records = read_runlog(result.runlog_path)
    events = [r["event"] for r in records]
    assert events[0] == "campaign_begin" and records[0]["jobs"] == 2
    assert events[-1] == "campaign_end"
    assert events.count("job_started") == 2
    finished = [r for r in records if r["event"] == "job_finished"]
    assert len(finished) == 2
    for record in finished:
        assert record["wall_s"] >= 0
        assert record["max_rss_bytes"] > 0
        assert record["attempts"] == 1
    end = records[-1]
    assert end["ok"] == 2 and end["failed"] == 0
    assert end["cache_misses"] == 2 and end["cache_hits"] == 0
    assert end["speedup"] >= 0
    assert end["driver_max_rss_bytes"] == result.driver_max_rss_bytes > 0
    # The summary surfaces the log path.
    assert summarize_campaign(result)["runlog"] == result.runlog_path

    # Second campaign: same jobs arrive as cache hits, in a new log.
    second = run_campaign(jobs, add_runner, workers=2, cache=cache)
    assert second.runlog_path
    second_events = [r["event"] for r in read_runlog(second.runlog_path)]
    assert second_events.count("job_cache_hit") == 2
    assert "job_started" not in second_events


def test_runlog_records_failures_and_retries(cache):
    result = run_campaign([AddJob(9, 0)], crash_runner, workers=1,
                          retries=1, cache=cache)
    records = read_runlog(result.runlog_path)
    events = [r["event"] for r in records]
    assert events.count("job_started") == 2  # original + retry
    assert events.count("job_retried") == 1
    failed = [r for r in records if r["event"] == "job_failed"]
    assert len(failed) == 1
    assert "boom on 9" in failed[0]["error"]
    assert failed[0]["status"] == "failed"
    assert failed[0]["attempts"] == 2
    assert records[-1]["failed"] == 1 and records[-1]["retries"] == 1


def test_runlog_default_lands_next_to_cache(cache):
    result = run_campaign([AddJob(5, 6)], add_runner, workers=1, cache=cache)
    assert result.runlog_path
    assert str(cache.root / "runlog") in result.runlog_path


def test_runlog_is_valid_jsonl_line_by_line(cache):
    result = run_campaign([AddJob(3, 3)], add_runner, workers=1, cache=cache)
    with open(result.runlog_path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            assert isinstance(record["ts"], float)
            assert isinstance(record["event"], str)
