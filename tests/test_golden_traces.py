"""Golden per-cycle trace fixtures: the fast engine vs pinned reference.

Three small pinned workloads (one per configuration family) have their
complete per-cycle fetch/commit traces — as captured from the *reference*
core's observer events — checked into ``tests/golden/``.  The fast engine
must reproduce each fixture byte-for-byte; a second (cheap) guard re-runs
the reference core so a behavioural change in the simulator shows up as a
stale fixture instead of silently re-pinning.

Regenerate after an *intentional* model change with::

    PYTHONPATH=src python -m tests.test_golden_traces

which rewrites the fixtures from the reference core (never from the fast
engine — the oracle pins the bytes, the twin has to match them).
"""

from pathlib import Path

import pytest

from repro.core.config import MMTConfig
from repro.obs import MemorySink, Observer
from repro.pipeline.config import MachineConfig
from repro.pipeline.fast import FastSMTCore
from repro.pipeline.smt import SMTCore
from repro.workloads.generator import build_workload
from repro.workloads.profiles import get_profile

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Pinned (app, contexts, generator seed, config) — one per configuration
#: family: plain SMT, shared fetch only, and full MMT.
PINNED = [
    ("ammp", 2, 12, "Base"),
    ("mcf", 2, 31, "MMT-F"),
    ("lu", 4, 83, "MMT-FXR"),
]

#: Small enough that each fixture stays a few tens of kilobytes.
SCALE = 0.05

CONFIGS = {
    "Base": MMTConfig.base,
    "MMT-F": MMTConfig.mmt_f,
    "MMT-FXR": MMTConfig.mmt_fxr,
}


def fixture_path(app: str, nctx: int, seed: int, config_name: str) -> Path:
    return GOLDEN_DIR / f"{app}-{nctx}t-s{seed}-{config_name}.trace"


def format_records(records) -> str:
    """One trace record per line; fields space-separated, order preserved."""
    return "".join(" ".join(str(f) for f in rec) + "\n" for rec in records)


def _build(app: str, nctx: int, seed: int):
    return build_workload(get_profile(app), nctx, scale=SCALE, seed=seed)


def reference_trace_text(app: str, nctx: int, seed: int, config_name: str) -> str:
    """The pinned truth: FETCH/COMMIT events of a reference run."""
    from tests.test_fastpath_differential import reference_trace

    obs = Observer(sink=MemorySink())
    build = _build(app, nctx, seed)
    core = SMTCore(
        MachineConfig(num_threads=max(2, nctx)), CONFIGS[config_name](),
        build.job(), obs=obs,
    )
    core.run()
    return format_records(reference_trace(obs.sink.events))


def fast_trace_text(app: str, nctx: int, seed: int, config_name: str) -> str:
    trace: list[tuple] = []
    build = _build(app, nctx, seed)
    core = FastSMTCore(
        MachineConfig(num_threads=max(2, nctx)), CONFIGS[config_name](),
        build.job(), trace=trace,
    )
    core.run()
    return format_records(trace)


@pytest.mark.parametrize(
    "app,nctx,seed,config_name",
    PINNED,
    ids=[f"{a}-{n}t-{c}" for a, n, _, c in PINNED],
)
def test_fast_engine_reproduces_golden_trace(app, nctx, seed, config_name):
    path = fixture_path(app, nctx, seed, config_name)
    assert path.exists(), (
        f"missing golden fixture {path.name}; regenerate with "
        f"`PYTHONPATH=src python -m tests.test_golden_traces`"
    )
    golden = path.read_text()
    got = fast_trace_text(app, nctx, seed, config_name)
    assert got == golden, (
        f"{path.name}: fast engine trace diverged from the pinned "
        f"reference trace ({len(got.splitlines())} vs "
        f"{len(golden.splitlines())} records)"
    )


@pytest.mark.parametrize(
    "app,nctx,seed,config_name",
    PINNED,
    ids=[f"{a}-{n}t-{c}" for a, n, _, c in PINNED],
)
def test_reference_still_matches_golden_trace(app, nctx, seed, config_name):
    """Staleness guard: a model change must re-pin fixtures explicitly."""
    path = fixture_path(app, nctx, seed, config_name)
    assert path.exists()
    got = reference_trace_text(app, nctx, seed, config_name)
    assert got == path.read_text(), (
        f"{path.name}: the reference core no longer produces the pinned "
        f"trace — if the model change is intentional, regenerate with "
        f"`PYTHONPATH=src python -m tests.test_golden_traces`"
    )


def regenerate() -> None:  # pragma: no cover - maintenance entry point
    GOLDEN_DIR.mkdir(exist_ok=True)
    for app, nctx, seed, config_name in PINNED:
        path = fixture_path(app, nctx, seed, config_name)
        path.write_text(reference_trace_text(app, nctx, seed, config_name))
        print(f"wrote {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
