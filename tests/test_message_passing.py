"""Message-passing extension: channels, ISA semantics, end-to-end runs."""

import pytest

from repro.core.config import MMTConfig
from repro.func.executor import ExecutionError, FunctionalExecutor
from repro.isa.assembler import assemble
from repro.mem.channels import MessageNetwork
from repro.pipeline.config import MachineConfig
from repro.pipeline.job import Job
from repro.pipeline.smt import SMTCore
from repro.workloads.message_passing import build_mp_workload


# ---------------------------------------------------------------- channels
def test_channel_fifo_order():
    net = MessageNetwork()
    net.send(3, 10)
    net.send(3, 20)
    assert net.try_recv(3) == 10
    assert net.try_recv(3) == 20
    assert net.try_recv(3) is None
    assert net.sends == 2 and net.receives == 2 and net.empty_polls == 1


def test_channels_independent():
    net = MessageNetwork()
    net.send(1, 7)
    assert net.try_recv(2) is None
    assert net.try_recv(1) == 7
    assert net.depth(1) == 0


def test_channel_overflow_detected():
    net = MessageNetwork(capacity_per_channel=2)
    net.send(0, 1)
    net.send(0, 2)
    with pytest.raises(RuntimeError):
        net.send(0, 3)


def test_total_queued():
    net = MessageNetwork()
    net.send(0, 1)
    net.send(5, 2)
    assert net.total_queued() == 2


# --------------------------------------------------------------------- ISA
PINGPONG = """
    tid r1
    bne r1, r0, receiver
    li r2, 1          # rank 0: send 42 on channel 1
    li r3, 42
    send r2, r3
    halt
receiver:
    li r4, -1
spin:
    trecv r5, r1      # rank 1 polls its own channel
    beq r5, r4, spin
    la r6, out
    sw r5, 0(r6)
    halt
.data 0x100
out: .word 0
"""


def test_send_trecv_functional():
    prog = assemble(PINGPONG)
    job = Job.message_passing("pp", prog, [{}, {}])
    states = job.make_states()
    executors = [FunctionalExecutor(s) for s in states]
    # Fair round-robin interleaving (a blocked receiver must not starve
    # the sender).
    steps = 0
    while not all(s.halted for s in states):
        for ex in executors:
            if not ex.state.halted:
                ex.step()
        steps += 1
        assert steps < 1000
    assert job.address_spaces[1].load(prog.symbol("out")) == 42
    assert job.channels.total_queued() == 0


def test_send_outside_mp_job_raises():
    prog = assemble("li r1, 0\nsend r1, r1\nhalt")
    job = Job.multi_execution("x", prog, [{}])
    state = job.make_states()[0]
    ex = FunctionalExecutor(state)
    ex.step()
    with pytest.raises(ExecutionError):
        ex.step()


def test_pingpong_on_the_pipeline():
    prog = assemble(PINGPONG)
    for config in (MMTConfig.base(), MMTConfig.mmt_fxr()):
        job = Job.message_passing("pp", prog, [{}, {}])
        core = SMTCore(MachineConfig(num_threads=2), config, job, strict=True)
        core.run()
        assert job.address_spaces[1].load(prog.symbol("out")) == 42
        assert job.channels.total_queued() == 0


# ------------------------------------------------------------- workloads
def expected_ring_payloads(nctx: int, iterations: int) -> list[int]:
    """Reference computation of the ring exchange's final payloads."""
    payloads = [13 + rank for rank in range(nctx)]
    for _ in range(iterations):
        sent = list(payloads)
        for rank in range(nctx):
            payloads[rank] = (payloads[rank] + sent[(rank - 1) % nctx]) & (
                (1 << 30) - 1
            )
    return payloads


@pytest.mark.parametrize("nctx", [2, 4])
def test_ring_results_match_reference(nctx):
    build = build_mp_workload(nctx, "ring", iterations=12)
    job = build.job()
    core = SMTCore(MachineConfig(num_threads=nctx), MMTConfig.base(), job)
    core.run()
    outs = build.output_region(job)
    expected = expected_ring_payloads(nctx, 12)
    for rank in range(nctx):
        assert outs[rank][4] == expected[rank]  # the exchanged payload
        assert outs[rank][5] == 12  # received exactly one message per iter
    assert job.channels.total_queued() == 0


@pytest.mark.parametrize("pattern", ["ring", "pairs"])
@pytest.mark.parametrize("config", [
    MMTConfig.base(), MMTConfig.mmt_f(), MMTConfig.mmt_fx(), MMTConfig.mmt_fxr(),
])
def test_all_configs_agree(pattern, config):
    build = build_mp_workload(2, pattern, iterations=10)
    reference = None
    job = build.job()
    core = SMTCore(MachineConfig(num_threads=2), config, job, strict=True)
    stats = core.run()
    outs = build.output_region(job)
    base_build = build_mp_workload(2, pattern, iterations=10)
    base_job = base_build.job()
    SMTCore(MachineConfig(num_threads=2), MMTConfig.base(), base_job).run()
    reference = base_build.output_region(base_job)
    assert outs == reference, config.name
    assert stats.halted_threads == 2


def test_mp_merges_common_compute():
    build = build_mp_workload(4, "ring", iterations=16)
    core = SMTCore(
        MachineConfig(num_threads=4), MMTConfig.mmt_fxr(), build.job(), strict=True
    )
    stats = core.run()
    breakdown = stats.identified_breakdown()
    # The compute block is context-identical; the exchange is private.
    assert breakdown["exec_identical"] + breakdown["exec_identical_regmerge"] > 0.2


def test_mp_message_ops_never_merge():
    build = build_mp_workload(2, "pairs", iterations=8)
    core = SMTCore(
        MachineConfig(num_threads=2), MMTConfig.mmt_fxr(), build.job(), strict=True
    )
    core.run()
    # Every SEND/TRECV splits: committed entries for MSG-class ops equal
    # committed thread-instructions for them (no way to observe directly;
    # the strict oracle checks would have tripped on a merged TRECV).
    assert core.job.channels.sends == core.job.channels.receives


def test_programs_do_not_depend_on_the_hash_seed():
    """Both patterns build the same program in every interpreter,
    whatever its PYTHONHASHSEED."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "from repro.workloads.message_passing import PATTERNS, "
        "build_mp_workload\n"
        "print([build_mp_workload(2, p).program.digest() for p in PATTERNS])"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = set()
    for hash_seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src),
               "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs


def test_pattern_validation():
    with pytest.raises(ValueError):
        build_mp_workload(2, "mesh")
    with pytest.raises(ValueError):
        build_mp_workload(1, "ring")
    with pytest.raises(ValueError):
        build_mp_workload(3, "pairs")
