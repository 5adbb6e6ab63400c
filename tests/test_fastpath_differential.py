"""Differential fuzzing: the fast-path engine vs the reference core.

Seeded random programs from :mod:`repro.workloads.generator` run through
both :class:`~repro.pipeline.smt.SMTCore` (the oracle) and
:class:`~repro.pipeline.fast.FastSMTCore` under Base, MMT-F and MMT-FXR.
The fast engine must be *cycle-exact*: identical final :class:`SimStats`,
identical architectural register and memory state, and an identical
commit-order instruction stream (plus per-cycle fetch sessions), compared
against the reference observer's FETCH/COMMIT event trace.

The program budget scales with ``--runs`` (see ``conftest.py``): the
tier-1 default keeps commit-time runs fast, nightly CI passes
``--runs=200`` for 200 seeded programs per configuration.  Everything is
seeded, so failures reproduce.
"""

import pytest

from repro.core.config import MMTConfig
from repro.obs import MemorySink, Observer
from repro.obs.events import EventKind
from repro.pipeline.fast import ENGINES, FastSMTCore, resolve_engine
from repro.pipeline.smt import SMTCore
from repro.workloads.generator import build_workload
from repro.workloads.profiles import APP_ORDER, get_profile
from tests.test_differential import CONFIGS, SCALE, run_pipeline

#: Tier-1 fuzz budget (seeded programs per configuration) when ``--runs``
#: is not given.
DEFAULT_RUNS = 10

#: Shared-fetch-only coverage on top of the differential suite's pair.
ENGINE_CONFIGS = CONFIGS + [("MMT-F", MMTConfig.mmt_f())]

#: Context counts cycled across fuzz cases: SMT pairs dominate (the
#: paper's shape), with 4-way and single-context shapes interleaved.
_NCTX = (2, 4, 1, 2)


def fuzz_case(index: int) -> tuple[str, int, int]:
    """Deterministic (app, nctx, seed) for fuzz program *index*."""
    app = APP_ORDER[index % len(APP_ORDER)]
    nctx = _NCTX[index % len(_NCTX)]
    return app, nctx, 1000 + index


def pytest_generate_tests(metafunc):
    if "fuzz_index" in metafunc.fixturenames:
        runs = metafunc.config.getoption("--runs") or DEFAULT_RUNS
        cases = [fuzz_case(i) for i in range(runs)]
        metafunc.parametrize(
            "fuzz_index",
            range(runs),
            ids=[f"{a}-{n}t-s{s}" for a, n, s in cases],
        )


def reference_trace(events) -> list[tuple]:
    """Reference FETCH/COMMIT events in the fast engine's trace format."""
    out = []
    for event in events:
        if event.kind is EventKind.FETCH:
            data = event.data
            out.append(("F", event.cycle, event.tid, event.pc, data["gid"],
                        data["mask"], data["mode"], data["count"]))
        elif event.kind is EventKind.COMMIT:
            data = event.data
            out.append(("C", event.cycle, event.tid, event.pc, event.seq,
                        data["itid"], data["threads"]))
    return out


def assert_cycle_exact(build, config, nctx, label):
    """Both engines over one build: stats, state, and traces must match."""
    obs = Observer(sink=MemorySink())
    ref, ref_job = run_pipeline(build, config, nctx, obs=obs)
    trace: list[tuple] = []
    fast, fast_job = run_pipeline(
        build, config, nctx, core_cls=FastSMTCore, trace=trace
    )
    assert fast.stats.__dict__ == ref.stats.__dict__, (
        f"{label}: SimStats diverged"
    )
    for ctx in range(nctx):
        assert list(fast.states[ctx].regs) == list(ref.states[ctx].regs), (
            f"{label}: register state of context {ctx} diverged"
        )
    ref_mems = [space.snapshot() for space in ref_job.address_spaces]
    fast_mems = [space.snapshot() for space in fast_job.address_spaces]
    assert fast_mems == ref_mems, f"{label}: memory diverged"
    want = reference_trace(obs.sink.events)
    if trace != want:
        first = min(len(trace), len(want))
        for i, (got, exp) in enumerate(zip(trace, want)):
            if got != exp:
                first = i
                break
        pytest.fail(
            f"{label}: fetch/commit stream diverged at record {first}: "
            f"fast={trace[first] if first < len(trace) else '<end>'} "
            f"ref={want[first] if first < len(want) else '<end>'}"
        )
    return ref.stats


def test_fast_engine_fuzz_cycle_exact(fuzz_index):
    """One seeded program, every configuration, both engines."""
    app, nctx, seed = fuzz_case(fuzz_index)
    build = build_workload(get_profile(app), nctx, scale=SCALE, seed=seed)
    for label, config in ENGINE_CONFIGS:
        assert_cycle_exact(build, config, nctx, f"{app}-{nctx}t-s{seed}/{label}")


#: Tier-2 coverage: the two fig5a configs the tier-1 loop leaves out.
DEEP_CONFIGS = [("MMT-FX", MMTConfig.mmt_fx()), ("Limit", MMTConfig.limit())]


@pytest.mark.slow
def test_fast_engine_deep_sweep_remaining_configs(fuzz_index):
    """Tier 2 (``--run-slow``): same exactness bar for MMT-FX and Limit,
    completing both-engine coverage of every fig5a configuration."""
    app, nctx, seed = fuzz_case(fuzz_index)
    build = build_workload(get_profile(app), nctx, scale=SCALE, seed=seed)
    for label, config in DEEP_CONFIGS:
        assert_cycle_exact(build, config, nctx, f"{app}-{nctx}t-s{seed}/{label}")


def test_fast_engine_without_specialization_cycle_exact():
    """The fast loop's fetch path checks every record's guards (halt,
    hint, control, lockstep) itself and must be the same simulation as
    the reference on every config."""
    from repro.pipeline.config import MachineConfig

    build = build_workload(get_profile("ammp"), 2, scale=SCALE, seed=11)
    for label, config in ENGINE_CONFIGS:
        ref, _ = run_pipeline(build, config, 2)
        job = build.limit_job() if config.limit_identical else build.job()
        core = FastSMTCore(MachineConfig(num_threads=2), config, job)
        stats = core.run()
        assert stats.__dict__ == ref.stats.__dict__, f"{label}: diverged"
        assert core.ran_fast_loop


def test_engine_registry():
    assert set(ENGINES) == {"reference", "fast"}
    assert resolve_engine("reference") is SMTCore
    assert resolve_engine("fast") is FastSMTCore
    assert issubclass(FastSMTCore, SMTCore)
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine("warp")


def test_fast_engine_rejects_trace_with_observer():
    """Trace capture needs the fast loop; an active observer forces the
    reference loop, so the combination is refused loudly."""
    build = build_workload(get_profile("fft"), 2, scale=SCALE, seed=3)
    from repro.pipeline.config import MachineConfig

    core = FastSMTCore(
        MachineConfig(num_threads=2), MMTConfig.base(), build.job(),
        obs=Observer(sink=MemorySink()), trace=[],
    )
    with pytest.raises(ValueError, match="observer"):
        core.run()


def test_fast_engine_with_observer_falls_back_to_reference_loop():
    """With an observer attached the fast engine runs the reference loop
    (exact event streams) and still matches the reference stats."""
    build = build_workload(get_profile("mcf"), 2, scale=SCALE, seed=4)
    config = MMTConfig.mmt_fxr()
    ref_obs = Observer(sink=MemorySink())
    ref, _ = run_pipeline(build, config, 2, obs=ref_obs)
    fast_obs = Observer(sink=MemorySink())
    fast, _ = run_pipeline(
        build, config, 2, core_cls=FastSMTCore, obs=fast_obs
    )
    assert fast.stats.__dict__ == ref.stats.__dict__
    assert reference_trace(fast_obs.sink.events) == reference_trace(
        ref_obs.sink.events
    )
