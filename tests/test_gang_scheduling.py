"""Scheduling skew (§4.4): MMT needs gang scheduling to merge."""

import pytest

from repro.core.config import MMTConfig
from repro.pipeline.config import MachineConfig
from repro.pipeline.smt import SMTCore
from repro.workloads.generator import build_workload
from repro.workloads.profiles import get_profile


def run(delays, config=None, app="ammp", scale=0.4):
    build = build_workload(get_profile(app), 2, scale=scale)
    job = build.job()
    core = SMTCore(
        MachineConfig(num_threads=2, start_delays=tuple(delays or ())),
        config or MMTConfig.mmt_fxr(),
        job,
    )
    stats = core.run()
    return stats, build.output_region(job), core


def test_skewed_start_is_architecturally_invisible():
    _, on_time, _ = run(None, config=MMTConfig.base())
    for delays in ([0, 50], [30, 0], [0, 300]):
        stats, skewed, _ = run(delays)
        assert skewed == on_time, delays
        assert stats.halted_threads == 2


def test_skew_destroys_merging():
    """The quantitative §4.4 argument: without gang scheduling the merged
    fraction collapses toward fetch-sharing-only."""
    aligned, _, _ = run(None)
    skewed, _, _ = run([0, 150])
    aligned_x = aligned.identified_breakdown()
    skewed_x = skewed.identified_breakdown()
    assert (
        skewed_x["exec_identical"] + skewed_x["exec_identical_regmerge"]
        < 0.5 * (aligned_x["exec_identical"] + aligned_x["exec_identical_regmerge"])
    )


def test_skew_costs_cycles():
    aligned, _, _ = run(None)
    skewed, _, _ = run([0, 150])
    assert skewed.cycles > aligned.cycles


def test_base_config_insensitive_to_small_skew():
    """A traditional SMT just loses the delay itself, nothing structural."""
    aligned, _, _ = run(None, config=MMTConfig.base())
    skewed, _, _ = run([0, 50], config=MMTConfig.base())
    assert skewed.cycles <= aligned.cycles + 50 + 32


def test_delay_length_validation():
    build = build_workload(get_profile("ammp"), 2, scale=0.2)
    with pytest.raises(ValueError):
        SMTCore(
            MachineConfig(num_threads=2, start_delays=(0,)),
            MMTConfig.base(),
            build.job(),
        )


def test_delayed_thread_fetches_nothing_until_release():
    build = build_workload(get_profile("lu"), 2, scale=0.2)
    core = SMTCore(
        MachineConfig(num_threads=2, start_delays=(0, 40)),
        MMTConfig.mmt_fxr(),
        build.job(),
    )
    for _ in range(39):
        core.step()
    assert core.icount[1] == 0
    assert core.icount[0] > 0
    core.run()


def test_a_skew_campaign_point_equals_the_core_run(tmp_path):
    """The machine carries the start delays, so a skewed point is campaign
    job data: run through run_points it equals the direct core run."""
    from repro.harness import CampaignJob, run_points

    machine = MachineConfig(num_threads=2, start_delays=(0, 150))
    job = CampaignJob("ammp", MMTConfig.mmt_fxr(), 2, machine=machine,
                      scale=0.4)
    result = run_points([job], workers=1, cache=tmp_path)
    (outcome,) = result.outcomes
    assert outcome.ok and result.validation_failures == []
    stats, outputs, _ = run([0, 150])
    assert vars(outcome.payload.stats) == vars(stats)
    assert outcome.payload.outputs == outputs
