"""Software remerge hints (Thread Fusion extension)."""

import dataclasses

from repro.core.config import MMTConfig
from repro.isa.opcodes import OpClass, Opcode, op_class
from repro.pipeline.config import MachineConfig
from repro.pipeline.smt import SMTCore
from repro.workloads.generator import build_workload
from repro.workloads.profiles import get_profile


def test_hint_is_an_architectural_nop():
    from repro.func.executor import FunctionalExecutor
    from repro.func.state import ArchState
    from repro.isa.assembler import assemble
    from repro.mem.memory import AddressSpace

    prog = assemble("li r1, 5\nhint\naddi r1, r1, 1\nhalt")
    state = ArchState(prog, AddressSpace())
    FunctionalExecutor(state).run()
    assert state.regs[1] == 6
    assert op_class(Opcode.HINT) is OpClass.SYS


def test_generator_emits_hints_only_when_asked():
    plain = build_workload(get_profile("vpr"), 2)
    hinted = build_workload(get_profile("vpr"), 2, hints=True)
    count = lambda build: sum(
        1 for inst in build.program.instructions if inst.op is Opcode.HINT
    )
    assert count(plain) == 0
    assert count(hinted) > 0


def run(app, config, hints, scale=0.4):
    build = build_workload(get_profile(app), 2, scale=scale, hints=hints)
    job = build.job()
    core = SMTCore(MachineConfig(num_threads=2), config, job)
    stats = core.run()
    return stats, build.output_region(job), core


def test_hints_preserve_architecture():
    _, base_out, _ = run("vpr", MMTConfig.base(), hints=True)
    stats, hint_out, _ = run("vpr", MMTConfig.mmt_fxr_hints(), hints=True)
    assert hint_out == base_out
    assert stats.hint_parks > 0


def test_hints_increase_merge_fraction():
    plain_stats, _, _ = run("vpr", MMTConfig.mmt_fxr(), hints=False)
    hint_stats, _, _ = run("vpr", MMTConfig.mmt_fxr_hints(), hints=True)
    assert (
        hint_stats.mode_breakdown()["merge"]
        > plain_stats.mode_breakdown()["merge"]
    )
    assert hint_stats.hint_releases > 0


def test_hints_ignored_without_use_hints():
    stats, _, _ = run("vpr", MMTConfig.mmt_fxr(), hints=True)
    assert stats.hint_parks == 0


def test_hint_timeout_recovers():
    """A tiny window still terminates correctly even when partners rarely
    arrive in time (parks simply expire)."""
    config = dataclasses.replace(MMTConfig.mmt_fxr_hints(), hint_window=2)
    stats, out, _ = run("twolf", config, hints=True)
    _, base_out, _ = run("twolf", MMTConfig.base(), hints=True)
    assert out == base_out
    assert stats.halted_threads == 2


def test_hints_reduce_icache_traffic_on_flag_divergence_apps():
    _, _, plain_core = run("vpr", MMTConfig.mmt_fxr(), hints=False, scale=1.0)
    _, _, hint_core = run("vpr", MMTConfig.mmt_fxr_hints(), hints=True, scale=1.0)
    assert (
        hint_core.hierarchy.l1i.stats.accesses
        < plain_core.hierarchy.l1i.stats.accesses
    )


def test_a_hints_campaign_point_simulates_the_hinted_build(tmp_path):
    """A use_hints configuration runs the app's hinted program: its
    campaign point is not the MMT-FXR point under another label, and it
    equals a core run on the hinted build."""
    from repro.harness import CampaignJob, run_points

    jobs = [CampaignJob("vpr", config, 2, scale=0.4)
            for config in (MMTConfig.mmt_fxr(), MMTConfig.mmt_fxr_hints())]
    result = run_points(jobs, workers=2, cache=tmp_path)
    assert all(o.ok for o in result.outcomes)
    assert result.validation_failures == []
    plain, hinted = (outcome.payload for outcome in result.outcomes)
    stats, outputs, _ = run("vpr", MMTConfig.mmt_fxr_hints(), hints=True)
    assert vars(hinted.stats) == vars(stats)
    assert hinted.outputs == outputs
    assert hinted.stats.hint_parks > 0 and plain.stats.hint_parks == 0
    assert hinted.cycles != plain.cycles


def test_a_registry_workload_is_one_pass_task_under_hints(tmp_path, capsys,
                                                          monkeypatch):
    """A registry workload builds as it is under a use_hints config, so
    its MMT-FXR and MMT-FXR+H points share one workload: the pass builds,
    lints and spools it once."""
    from repro.harness import experiment
    from repro.harness.cli import main

    tasks = []
    real = experiment.run_campaign

    def spy(jobs, runner, **kwargs):
        if runner is experiment.check_workload:
            tasks.extend(jobs)
        return real(jobs, runner, **kwargs)

    monkeypatch.setattr(experiment, "run_campaign", spy)
    assert main(["campaign", "--apps", "dyn-bursty", "--configs", "MMT-FXR",
                 "MMT-FXR+H", "--threads", "2", "--scale", "0.1",
                 "--no-cache", "--cache-dir", str(tmp_path),
                 "--dump-dir", ""]) == 0
    out = capsys.readouterr().out
    assert [task.label() for task in tasks] == ["dyn-bursty/2t"]
    assert "lint dyn-bursty: ok" in out
    assert "cached ok" not in out
