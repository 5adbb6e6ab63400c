"""Observability: event tracing, interval metrics, watchdog, exports."""

import pytest

from repro.core.config import MMTConfig
from repro.harness import experiment
from repro.harness.experiment import CampaignJob, simulate, trace_run
from repro.harness.results import dump_trace
from repro.obs import (
    EventKind,
    FlightRecorder,
    MemorySink,
    Observer,
    WatchdogError,
    chrome_trace,
    load_chrome_trace,
    load_dump,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.pipeline.stats import StatsConsistencyError


@pytest.fixture(scope="module")
def traced():
    """One fully observed MMT-FXR run shared by the read-only tests."""
    return trace_run(CampaignJob("ammp", MMTConfig.mmt_fxr(), 2, scale=0.1))


# ----------------------------------------------------------- event tracing
def test_event_counts_reconcile_with_final_stats(traced):
    run, obs = traced
    counts = obs.sink.counts()
    stats = run.stats
    assert counts.get("commit", 0) == stats.committed_entries
    assert counts.get("issue", 0) == stats.issued_entries
    assert counts.get("fetch", 0) == stats.fetch_sessions
    assert counts.get("mispredict", 0) == stats.branch_mispredicts
    sync = run.sync_stats
    assert counts.get("merge", 0) == sync.remerges
    assert counts.get("split", 0) == sync.divergences


def test_event_stream_is_cycle_ordered(traced):
    _, obs = traced
    cycles = [event.cycle for event in obs.sink.events]
    assert cycles == sorted(cycles)
    assert obs.sink.dropped == 0


def test_issue_precedes_commit_per_entry(traced):
    _, obs = traced
    issued = {}
    for event in obs.sink.events:
        if event.kind is EventKind.ISSUE:
            issued[event.seq] = event.cycle
        elif event.kind is EventKind.COMMIT and event.seq in issued:
            assert issued[event.seq] <= event.cycle
    assert issued  # the run actually issued something


def test_bounded_sink_drops_oldest_but_counts():
    obs = Observer(sink=MemorySink(50))
    run = simulate(CampaignJob("ammp", MMTConfig.base(), 2, scale=0.1), obs)
    assert len(obs.sink.events) == 50
    assert obs.sink.dropped > 0
    # The retained suffix still ends with the run's final events.
    assert obs.sink.events[-1].cycle <= run.stats.cycles


def test_observer_attachment_is_timing_invisible():
    job = CampaignJob("ammp", MMTConfig.mmt_fxr(), 2, scale=0.1)
    plain = experiment.simulate_job(job, 0)
    traced_run, _ = trace_run(job)
    assert plain.stats.cycles == traced_run.stats.cycles
    assert plain.stats.committed_entries == traced_run.stats.committed_entries


# --------------------------------------------------------- interval metrics
def test_interval_sums_reconcile_exactly(traced):
    run, obs = traced
    assert obs.interval.reconcile(run.stats) == []
    totals = obs.interval.totals()
    assert totals["committed_thread_insts"] == \
        run.stats.committed_thread_insts


def test_intervals_tile_the_run(traced):
    run, obs = traced
    samples = obs.interval.samples
    assert samples, "run must produce at least one interval"
    assert samples[0].start_cycle == 0
    for prev, cur in zip(samples, samples[1:]):
        assert cur.start_cycle == prev.end_cycle
    assert samples[-1].end_cycle == run.stats.cycles


def test_interval_rows_and_shares(traced):
    _, obs = traced
    for sample in obs.interval.samples:
        share = sample.mode_share()
        if sample.fetched_thread_insts:
            assert sum(share.values()) == pytest.approx(1.0)
        row = sample.as_dict()
        assert row["end_cycle"] > row["start_cycle"]
        assert 0.0 <= row["rst_sharing"] <= 1.0


def test_reconcile_flags_a_corrupted_counter(traced):
    import copy

    run, obs = traced
    stats = copy.deepcopy(run.stats)
    stats.fetch_sessions += 7
    problems = obs.interval.reconcile(stats)
    assert any("fetch_sessions" in p for p in problems)


# ------------------------------------------------------ watchdog + recorder
def test_watchdog_fires_on_injected_livelock(tmp_path):
    obs = Observer(recorder=FlightRecorder(capacity=64), watchdog_cycles=200)
    dump_path = tmp_path / "wedged.flight.json"
    with pytest.raises(WatchdogError) as excinfo:
        simulate(
            CampaignJob("ammp", MMTConfig.base(), 2, scale=0.1), obs,
            run=experiment._run_wedged, failure_dump=str(dump_path),
        )
    err = excinfo.value
    assert "no instruction committed in 200 cycles" in str(err)
    assert err.dump is not None
    # The failure dump landed on disk and round-trips.
    assert dump_path.exists()
    document = load_dump(dump_path)
    assert document["error"] == str(err)
    assert document["cycle"] >= 200
    kinds = [event["kind"] for event in document["events"]]
    assert kinds[-1] == "watchdog"
    assert document["committed_thread_insts"] == 0
    assert document["occupancy"]["rob"] == 0  # nothing ever fetched
    assert len(document["threads"]) == 2


def test_watchdog_fires_inside_fast_loop(tmp_path):
    """The no-forward-progress watchdog is enforced *from the fast loop*
    via the SampledObserver boundary check — no reference fallback —
    with the same message and flight dump as the reference engine."""
    from repro.obs import SampledObserver

    obs = SampledObserver(
        recorder=FlightRecorder(capacity=64), watchdog_cycles=200
    )
    dump_path = tmp_path / "wedged-fast.flight.json"
    with pytest.raises(WatchdogError) as excinfo:
        simulate(
            CampaignJob("ammp", MMTConfig.base(), 2, scale=0.1,
                        engine="fast"), obs,
            run=experiment._run_wedged, failure_dump=str(dump_path),
        )
    err = excinfo.value
    assert "no instruction committed in 200 cycles" in str(err)
    assert dump_path.exists()
    document = load_dump(dump_path)
    assert document["error"] == str(err)
    # Boundary granularity: the fast loop checks progress at watchdog
    # boundaries, so the trip lands between 1x and 2x the fuse.
    assert 200 <= document["cycle"] <= 400
    kinds = [event["kind"] for event in document["events"]]
    assert kinds[-1] == "watchdog"
    assert document["committed_thread_insts"] == 0
    assert document["job"]["engine"] == "fast"


def test_fast_and_reference_watchdog_dumps_agree(tmp_path):
    """Same wedged point, both engines: the dumps tell the same story."""
    from repro.obs import SampledObserver

    documents = {}
    for engine, obs in (
        ("reference", Observer(recorder=FlightRecorder(capacity=64),
                               watchdog_cycles=300)),
        ("fast", SampledObserver(recorder=FlightRecorder(capacity=64),
                                 watchdog_cycles=300)),
    ):
        dump_path = tmp_path / f"wedged-{engine}.flight.json"
        with pytest.raises(WatchdogError):
            simulate(
                CampaignJob("mcf", MMTConfig.mmt_fxr(), 2, scale=0.1,
                            engine=engine), obs,
                run=experiment._run_wedged, failure_dump=str(dump_path),
            )
        documents[engine] = load_dump(dump_path)
    ref, fast = documents["reference"], documents["fast"]
    assert ref["committed_thread_insts"] == fast["committed_thread_insts"]
    assert ref["events"][-1]["kind"] == fast["events"][-1]["kind"]
    # A wedged machine never progresses, so both engines trip on the
    # very first boundary after the fuse — the same cycle.
    assert ref["cycle"] == fast["cycle"]


def test_healthy_run_never_trips_watchdog(traced):
    run, obs = traced
    # The shared traced fixture ran with the default watchdog armed.
    assert obs.watchdog_cycles is not None
    assert run.stats.committed_thread_insts > 0


def test_flight_recorder_ring_is_bounded(traced):
    _, obs = traced
    recorder = obs.recorder
    assert len(recorder.events) <= recorder.capacity


# ------------------------------------------------------------ chrome export
def test_chrome_trace_roundtrip(tmp_path, traced):
    _, obs = traced
    path = tmp_path / "trace.json"
    write_chrome_trace(path, obs.sink.events, obs.interval.samples,
                       metadata={"app": "ammp"})
    document = load_chrome_trace(path)
    assert validate_chrome_trace(document) == []
    instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
    counters = [e for e in document["traceEvents"] if e["ph"] == "C"]
    assert len(instants) == len(obs.sink.events)
    assert counters  # interval samples became counter tracks
    timestamps = [e["ts"] for e in instants]
    assert timestamps == sorted(timestamps)


def test_validate_chrome_trace_rejects_malformed(traced):
    _, obs = traced
    document = chrome_trace(obs.sink.events)
    document["traceEvents"][0] = {"ph": "i"}  # missing name/ts/pid
    assert validate_chrome_trace(document)


def test_dump_trace_writes_time_series(tmp_path, traced):
    import json

    run, obs = traced
    out = tmp_path / "trace_rows.json"
    dump_trace(run, obs, out, extra={"scale": 0.1})
    data = json.loads(out.read_text())
    assert data["app"] == "ammp"
    assert data["cycles"] == run.stats.cycles
    assert len(data["intervals"]) == len(obs.interval.samples)
    assert data["event_counts"] == obs.sink.counts()
    assert data["scale"] == 0.1


# ----------------------------------------------------------- stats validate
def test_simstats_validate_passes_on_real_run(traced):
    run, _ = traced
    run.stats.validate()  # must not raise


def test_simstats_validate_catches_corruption(traced):
    import copy

    run, _ = traced
    stats = copy.deepcopy(run.stats)
    stats.fetched_thread_insts += 1  # mode breakdown no longer sums
    with pytest.raises(StatsConsistencyError) as excinfo:
        stats.validate()
    assert "fetched_by_mode" in str(excinfo.value)

    stats = copy.deepcopy(run.stats)
    stats.committed_entries = stats.committed_thread_insts + 1
    with pytest.raises(StatsConsistencyError):
        stats.validate()


# ------------------------------------------------------------ null observer
def test_null_observer_is_inert():
    from repro.obs import NULL_OBS

    assert not NULL_OBS.tracing
    assert not NULL_OBS.active


def test_memory_sink_counts_by_kind():
    from repro.obs import TraceEvent

    sink = MemorySink()
    sink.emit(TraceEvent(1, EventKind.FETCH, 0, 0x100, 1, None))
    sink.emit(TraceEvent(2, EventKind.COMMIT, 0, 0x100, 1, None))
    sink.emit(TraceEvent(2, EventKind.COMMIT, 1, 0x104, 2, None))
    assert sink.counts() == {"fetch": 1, "commit": 2}
    assert sink.by_kind(EventKind.COMMIT)[0].seq == 1
