"""Trace record -> replay round-trip, with byte-pinned golden fixtures.

One pinned recording (canneal, 4 contexts, MMT-FXR — chosen because its
threads genuinely decohere, so the token streams differ across contexts)
lives under ``tests/golden/`` in two parts:

* ``recorded-canneal-4t-MMT-FXR.trace.json`` — the canonical-JSON
  recording, byte-for-byte as ``repro record`` writes it;
* ``recorded-canneal-4t-MMT-FXR.replay-digest`` — the
  ``Program.digest()`` of the replay workload compiled from it.

The tests prove the full round trip: recording the same run still
produces the pinned bytes (staleness guard against silent model or
recorder changes), the pinned recording still compiles to the pinned
replay program (digest stability — this is what makes suite cache keys
trustworthy), and the replayed program is bit-exact across both engines.

Regenerate after an *intentional* recorder/model change with::

    PYTHONPATH=src python -m tests.test_record_replay
"""

from pathlib import Path

import pytest

from repro.core.config import MMTConfig
from repro.harness.experiment import CampaignJob
from repro.workloads.record import (
    RecordedTrace,
    TraceReplayWorkload,
    record_trace,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Pinned recording point: app, contexts, config factory, record scale,
#: window length.  canneal/4t decoheres, so the recording is not trivial
#: lockstep (unequal per-context token-stream lengths).
APP, NCTX, CONFIG_NAME, SCALE, WINDOW = "canneal", 4, "MMT-FXR", 0.05, 16
CONFIGS = {"MMT-FXR": MMTConfig.mmt_fxr}

STEM = f"recorded-{APP}-{NCTX}t-{CONFIG_NAME}"
TRACE_PATH = GOLDEN_DIR / f"{STEM}.trace.json"
DIGEST_PATH = GOLDEN_DIR / f"{STEM}.replay-digest"

_REGEN_HINT = (
    "regenerate with `PYTHONPATH=src python -m tests.test_record_replay`"
)


def _record() -> RecordedTrace:
    return record_trace(
        CampaignJob(APP, CONFIGS[CONFIG_NAME](), NCTX, scale=SCALE),
        window=WINDOW,
    )


def _replay_digest(trace: RecordedTrace) -> str:
    return TraceReplayWorkload(trace).build(NCTX).program.digest()


def test_recording_matches_golden_bytes():
    """Staleness guard: re-recording the pinned point reproduces the
    checked-in file byte-for-byte."""
    assert TRACE_PATH.exists(), f"missing {TRACE_PATH.name}; {_REGEN_HINT}"
    assert _record().to_json() == TRACE_PATH.read_text(), (
        f"{TRACE_PATH.name}: recording the pinned point no longer "
        f"produces the pinned bytes — if the simulator/recorder change "
        f"is intentional, {_REGEN_HINT}"
    )


def test_golden_recording_replays_to_pinned_program():
    """The pinned recording compiles to the pinned replay program digest
    — loading from disk, not re-recording, so this holds even if the
    recorder drifts."""
    assert DIGEST_PATH.exists(), f"missing {DIGEST_PATH.name}; {_REGEN_HINT}"
    trace = RecordedTrace.load(TRACE_PATH)
    assert _replay_digest(trace) == DIGEST_PATH.read_text().strip(), (
        f"{DIGEST_PATH.name}: replay compilation changed — if "
        f"intentional, {_REGEN_HINT}"
    )


def test_recorded_trace_round_trips_canonically():
    trace = RecordedTrace.load(TRACE_PATH)
    assert trace.to_json() == TRACE_PATH.read_text()
    assert trace.threads == NCTX
    assert trace.window == WINDOW
    # The pinned point decoheres: contexts hold distinct token streams.
    assert len({tuple(stream) for stream in trace.tokens}) > 1


def test_golden_replay_is_cycle_exact_across_engines():
    """The replayed program passes the same differential gate as every
    other workload (fast vs reference, stats/regs/memory/trace)."""
    from tests.test_fastpath_differential import assert_cycle_exact

    trace = RecordedTrace.load(TRACE_PATH)
    build = TraceReplayWorkload(trace).build(NCTX)
    assert_cycle_exact(
        build, CONFIGS[CONFIG_NAME](), NCTX, f"golden-replay-{APP}"
    )


def test_replay_workload_digest_pins_cache_token():
    trace = RecordedTrace.load(TRACE_PATH)
    workload = TraceReplayWorkload(trace)
    assert workload.cache_token() == f"trace@{trace.digest()[:12]}"
    assert not workload.valid_nctx(NCTX + 1)
    assert workload.valid_nctx(NCTX)


def test_malformed_recordings_raise_value_error(tmp_path):
    bad = tmp_path / "bad.trace.json"
    bad.write_text("{not json")
    for text in ("{not json", "{}", '{"version": 99, "tokens": []}'):
        bad.write_text(text)
        try:
            RecordedTrace.load(bad)
        except ValueError:
            continue
        raise AssertionError(f"load accepted malformed recording: {text!r}")


def regenerate() -> None:  # pragma: no cover - maintenance entry point
    GOLDEN_DIR.mkdir(exist_ok=True)
    trace = _record()
    trace.save(TRACE_PATH)
    DIGEST_PATH.write_text(_replay_digest(trace) + "\n")
    print(f"wrote {TRACE_PATH} ({TRACE_PATH.stat().st_size} bytes)")
    print(f"wrote {DIGEST_PATH} ({DIGEST_PATH.read_text().strip()})")


if __name__ == "__main__":  # pragma: no cover
    regenerate()



@pytest.mark.parametrize("command", [
    ["campaign", "--configs", "MMT-FXR", "--dump-dir", ""], ["fig5b"],
    ["fig1"],
])
def test_a_trace_re_recorded_at_its_path_is_simulated_afresh(tmp_path,
                                                             command):
    """Every command keys a trace job by the recording it replays: after
    another recording replaces the file, a run in a fresh interpreter
    simulates (or profiles) the new program rather than serve the old
    one's cached result, and every result passes the oracle check."""
    import os
    import subprocess
    import sys

    trace = tmp_path / "t.json"
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "repro", *command,
            "--apps", f"trace:{trace}", "--threads", "2", "--workers", "1",
            "--cache-dir", str(tmp_path / "cache")]
    sources = []
    for app in ("canneal", "water-sp"):
        record_trace(CampaignJob(app, MMTConfig.base(), 2, scale=0.2),
                     window=16).save(trace)
        proc = subprocess.run(argv, env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        sources += [line.split()[1] for line in proc.stdout.splitlines()
                    if line.startswith("[1/1]")]
    assert sources == ["ok", "ok"]
