"""LVIP prediction, verification, and thread-selective rollback."""

from repro.core.config import MMTConfig
from repro.isa.assembler import assemble
from repro.pipeline.config import MachineConfig
from repro.pipeline.job import Job
from repro.pipeline.smt import SMTCore

# Instances load per-instance data repeatedly; flag words differ between
# instances, forcing LVIP mispredictions and squashes.
SRC = """
    la r3, inp
    la r4, out
    li r5, 6
    li r2, 0
loop:
    lw r1, 0(r3)
    add r2, r2, r1
    slli r6, r1, 1
    xor r2, r2, r6
    addi r3, r3, 8
    addi r5, r5, -1
    bne r5, r0, loop
    sw r2, 0(r4)
    halt
.data 0x1000
inp: .word 1 2 3 4 5 6
out: .word 0
"""


def run_me(per_instance, config, nctx=None):
    nctx = nctx or len(per_instance)
    prog = assemble(SRC)
    job = Job.multi_execution("me", prog, per_instance)
    core = SMTCore(MachineConfig(num_threads=nctx), config, job)
    stats = core.run()
    outs = [space.load(prog.symbol("out")) for space in job.address_spaces]
    return stats, outs, core


def expected_outputs(per_instance):
    _, outs, _ = run_me(per_instance, MMTConfig.base())
    return outs


def test_identical_instances_no_mispredicts():
    stats, outs, _ = run_me([{}, {}], MMTConfig.mmt_fxr())
    assert stats.lvip_mispredicts == 0
    assert outs[0] == outs[1]


def test_differing_loads_trigger_mispredict_and_recover():
    inp = 0x1000
    overlay = [{}, {inp: 100, inp + 8: 200}]
    reference = expected_outputs(overlay)
    stats, outs, core = run_me(overlay, MMTConfig.mmt_fxr())
    assert outs == reference
    assert stats.lvip_mispredicts >= 1
    assert stats.lvip_squashed_insts > 0
    assert core.lvip.mispredictions >= 1


def test_lvip_learns_and_splits_future_loads():
    inp = 0x1000
    # Every word differs: after the first mispredict at the load PC, the
    # LVIP must predict 'different' and avoid further rollbacks at that PC.
    overlay = [{}, {inp + 8 * k: 50 + k for k in range(6)}]
    reference = expected_outputs(overlay)
    stats, outs, _ = run_me(overlay, MMTConfig.mmt_fxr())
    assert outs == reference
    assert stats.lvip_mispredicts <= 3  # bounded by pipeline overlap, not 6


def test_four_instances_partial_value_classes():
    inp = 0x1000
    overlay = [{}, {}, {inp: 7}, {inp: 7}]
    reference = expected_outputs(overlay)
    stats, outs, _ = run_me(overlay, MMTConfig.mmt_fxr(), nctx=4)
    assert outs == reference


def test_mmt_f_never_consults_lvip():
    inp = 0x1000
    overlay = [{}, {inp: 100}]
    stats, _, core = run_me(overlay, MMTConfig.mmt_f())
    assert stats.lvip_checks == 0
    assert core.lvip.predictions == 0


def test_squash_restores_exact_architecture():
    """After heavy squashing the final state must still match Base exactly,
    including every word of every instance's memory."""
    inp = 0x1000
    overlay = [{}, {inp: 3, inp + 16: 9, inp + 40: 1}]
    prog = assemble(SRC)
    ref_job = Job.multi_execution("a", prog, overlay)
    SMTCore(MachineConfig(num_threads=2), MMTConfig.base(), ref_job).run()
    mmt_job = Job.multi_execution("b", prog, overlay)
    SMTCore(MachineConfig(num_threads=2), MMTConfig.mmt_fxr(), mmt_job).run()
    for ref_space, mmt_space in zip(ref_job.address_spaces, mmt_job.address_spaces):
        assert ref_space.snapshot() == mmt_space.snapshot()
