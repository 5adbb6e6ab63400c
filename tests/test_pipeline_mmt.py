"""MMT configurations: cross-configuration architectural equivalence.

The decisive integration property: for any workload, every configuration
(Base, MMT-F, MMT-FX, MMT-FXR) must produce byte-identical final outputs —
MMT is a performance feature, never a semantic one.  Every run checks
each issue and writeback against the functional oracle.
"""

import pytest

from repro.core.config import MMTConfig
from repro.pipeline.config import MachineConfig
from repro.pipeline.smt import SMTCore
from repro.workloads.generator import build_workload
from repro.workloads.profiles import get_profile

CONFIGS = [
    MMTConfig.base(),
    MMTConfig.mmt_f(),
    MMTConfig.mmt_fx(),
    MMTConfig.mmt_fxr(),
]


def run_all_configs(app, nctx, scale=0.4):
    build = build_workload(get_profile(app), nctx, scale=scale)
    outputs = {}
    stats = {}
    for config in CONFIGS:
        job = build.job()
        core = SMTCore(MachineConfig(num_threads=nctx), config, job)
        stats[config.name] = core.run()
        outputs[config.name] = build.output_region(job)
    return outputs, stats


@pytest.mark.parametrize("app", ["ammp", "twolf", "lu", "canneal"])
@pytest.mark.parametrize("nctx", [2, 4])
def test_all_configs_equivalent(app, nctx):
    outputs, stats = run_all_configs(app, nctx)
    reference = outputs["Base"]
    for name, output in outputs.items():
        assert output == reference, f"{name} diverged from Base"
    for name, st in stats.items():
        assert st.committed_thread_insts == stats["Base"].committed_thread_insts


def test_limit_configuration_runs_identical_clones():
    build = build_workload(get_profile("water-sp"), 2, scale=0.4)
    job = build.limit_job()
    core = SMTCore(MachineConfig(num_threads=2), MMTConfig.limit(), job)
    stats = core.run()
    outs = build.output_region(job)
    assert outs[0] == outs[1]  # clones compute identical results
    breakdown = stats.identified_breakdown()
    assert breakdown["exec_identical"] > 0.8  # nearly everything merges


def test_mmt_f_never_executes_merged():
    build = build_workload(get_profile("ammp"), 2, scale=0.4)
    core = SMTCore(
        MachineConfig(num_threads=2), MMTConfig.mmt_f(), build.job()
    )
    stats = core.run()
    assert stats.committed_exec_identical == 0
    assert stats.committed_fetch_identical > 0


def test_mmt_fx_merges_execution():
    build = build_workload(get_profile("ammp"), 2, scale=0.4)
    core = SMTCore(
        MachineConfig(num_threads=2), MMTConfig.mmt_fx(), build.job()
    )
    stats = core.run()
    assert stats.committed_exec_identical > 0
    assert stats.committed_entries < stats.committed_thread_insts


def test_regmerge_only_in_fxr():
    build = build_workload(get_profile("equake"), 2, scale=0.4)
    fx = SMTCore(
        MachineConfig(num_threads=2), MMTConfig.mmt_fx(), build.job()
    )
    fx_stats = fx.run()
    fxr = SMTCore(
        MachineConfig(num_threads=2), MMTConfig.mmt_fxr(), build.job()
    )
    fxr_stats = fxr.run()
    assert fx_stats.register_merge_successes == 0
    assert fxr_stats.register_merge_successes > 0


def test_base_never_merges_fetch():
    build = build_workload(get_profile("lu"), 2, scale=0.4)
    core = SMTCore(
        MachineConfig(num_threads=2), MMTConfig.base(), build.job()
    )
    stats = core.run()
    assert stats.fetched_entries == stats.fetched_thread_insts


def test_merged_fetch_reduces_entries():
    build = build_workload(get_profile("ammp"), 2, scale=0.4)
    base = SMTCore(
        MachineConfig(num_threads=2), MMTConfig.base(), build.job()
    )
    base_stats = base.run()
    mmt = SMTCore(
        MachineConfig(num_threads=2), MMTConfig.mmt_fxr(), build.job()
    )
    mmt_stats = mmt.run()
    assert mmt_stats.fetched_entries < base_stats.fetched_entries
    # Fetched thread-instructions may exceed Base's (LVIP squashes refetch),
    # but committed work is identical.
    assert mmt_stats.committed_thread_insts == base_stats.committed_thread_insts


def test_icache_accesses_drop_with_shared_fetch():
    build = build_workload(get_profile("water-sp"), 2, scale=0.4)
    base = SMTCore(MachineConfig(num_threads=2), MMTConfig.base(), build.job())
    base.run()
    mmt = SMTCore(MachineConfig(num_threads=2), MMTConfig.mmt_f(), build.job())
    mmt.run()
    assert (
        mmt.hierarchy.l1i.stats.accesses < base.hierarchy.l1i.stats.accesses
    )


def test_four_thread_limit_enforced():
    build = build_workload(get_profile("ammp"), 2, scale=0.4)
    with pytest.raises(ValueError):
        SMTCore(MachineConfig(num_threads=1), MMTConfig.base(), build.job())


def test_three_context_job():
    build = build_workload(get_profile("fft"), 3, scale=0.4)
    job = build.job()
    core = SMTCore(MachineConfig(num_threads=3), MMTConfig.mmt_fxr(), job)
    stats = core.run()
    assert stats.halted_threads == 3
    reference = build_workload(get_profile("fft"), 3, scale=0.4)
    ref_job = reference.job()
    base = SMTCore(MachineConfig(num_threads=3), MMTConfig.base(), ref_job)
    base.run()
    assert build.output_region(job) == reference.output_region(ref_job)
