"""Host self-profiler: attribution, transparency, detach, exports."""

import pytest

from repro.core.config import MMTConfig
from repro.obs.prof import PROFILE_REGIONS, RESIDUAL_REGION, HostProfiler
from repro.pipeline.fast import FastSMTCore
from repro.workloads.generator import build_workload
from repro.workloads.profiles import get_profile
from tests.test_differential import SCALE


def build_core(app="mcf", nctx=2, seed=7, config=None, core_cls=FastSMTCore):
    """A ready-to-run core (not yet run) plus its build."""
    from repro.pipeline.config import MachineConfig

    config = config or MMTConfig.mmt_fxr()
    build = build_workload(get_profile(app), nctx, scale=SCALE, seed=seed)
    job = build.limit_job() if config.limit_identical else build.job()
    machine = MachineConfig(num_threads=max(2, nctx))
    return core_cls(machine, config, job), build


@pytest.fixture(scope="module")
def profiled():
    """One profiled fast-engine run shared by the read-only tests."""
    core, _ = build_core()
    prof = HostProfiler()
    stats = prof.run(core)
    return core, prof, stats


def test_rare_paths_are_attributed(profiled):
    core, prof, stats = profiled
    assert core.ran_fast_loop
    assert prof.total_wall > 0
    # The MMT-FXR mcf point exercises control flow and stores for sure;
    # which other rare paths fire is workload-dependent.
    assert prof.counts.get("control", 0) > 0
    assert prof.counts.get("store_commit", 0) > 0
    for region in prof.totals:
        assert prof.totals[region] >= 0.0
        assert prof.counts[region] > 0


def test_residual_is_the_fast_loop(profiled):
    _, prof, _ = profiled
    assert 0.0 <= prof.residual() <= prof.total_wall
    rows = prof.report_rows()
    regions = [row["region"] for row in rows]
    assert RESIDUAL_REGION in regions
    # Shares are a partition of the run's wall time.
    assert sum(row["share"] for row in rows) == pytest.approx(1.0, abs=1e-6)
    # Sorted largest-first.
    selfs = [row["self_s"] for row in rows]
    assert selfs == sorted(selfs, reverse=True)


def test_profiling_is_simulation_transparent(profiled):
    """A profiled run commits bit-identical statistics."""
    _, _, stats = profiled
    plain, _ = build_core()
    assert plain.run().__dict__ == stats.__dict__


def test_detach_restores_originals():
    core, _ = build_core()
    prof = HostProfiler()
    prof.attach(core)
    assert "_split" in core.__dict__  # instance-patched
    with pytest.raises(RuntimeError, match="already attached"):
        prof.attach(core)
    prof.detach()
    for _region, attr in PROFILE_REGIONS:
        assert attr not in core.__dict__
    assert "try_commit_store" not in core.lsq.__dict__
    from repro.pipeline import issue_stage

    assert issue_stage.squash_thread.__name__ == "squash_thread"
    # Detached core still runs fine.
    assert core.run().committed_thread_insts > 0


def test_profiler_works_on_reference_engine():
    from repro.pipeline.smt import SMTCore

    core, _ = build_core(core_cls=SMTCore)
    prof = HostProfiler()
    stats = prof.run(core)
    assert stats.committed_thread_insts > 0
    assert prof.counts.get("control", 0) > 0


def test_chrome_trace_export(tmp_path):
    from repro.obs import load_chrome_trace, validate_chrome_trace

    core, _ = build_core(app="fft", seed=3)
    prof = HostProfiler(record_slices=True)
    prof.run(core)
    path = prof.write_chrome_trace(tmp_path / "host.json")
    document = load_chrome_trace(path)
    assert validate_chrome_trace(document) == []
    events = document["traceEvents"]
    assert events and all(e["ph"] == "X" for e in events)
    assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in events)
    names = {e["name"] for e in events}
    assert names <= {r for r, _a in PROFILE_REGIONS} | {
        "store_commit", "squash"
    }


def test_chrome_trace_requires_slices(profiled):
    _, prof, _ = profiled
    with pytest.raises(ValueError, match="record_slices"):
        prof.chrome_trace()


def test_as_dict_is_json_ready(profiled):
    import json

    _, prof, _ = profiled
    document = prof.as_dict()
    json.dumps(document)  # must not raise
    assert document["total_wall_s"] == prof.total_wall
    assert document["regions"] == prof.report_rows()


def test_exclusive_attribution_hands_time_up():
    """A wrapped region calling another wrapped region keeps only its
    own self-time; the run totals still bound the wall clock."""
    core, _ = build_core(app="ammp", seed=12)
    prof = HostProfiler()
    prof.run(core)
    assert sum(prof.totals.values()) <= prof.total_wall + 1e-6
