"""Machine-detail behaviours: widths, resource limits, fetch shaping."""

from repro.core.config import MMTConfig
from repro.isa.assembler import assemble
from repro.pipeline.config import MachineConfig
from repro.pipeline.job import Job
from repro.pipeline.smt import SMTCore
from repro.workloads.generator import build_workload
from repro.workloads.profiles import get_profile


def run_src(src, machine=None, config=None, threads=1, warm=True):
    prog = assemble(src)
    job = Job.multi_threaded("t", prog, threads)
    core = SMTCore(
        machine or MachineConfig(num_threads=threads),
        config or MMTConfig.base(),
        job,
        warm_caches=warm,
    )
    stats = core.run()
    return stats, core


STRAIGHT = "\n".join(["addi r1, r1, 1"] * 64) + "\nhalt"


def test_commit_width_bounds_throughput():
    narrow = MachineConfig(num_threads=1, commit_width=1)
    stats, _ = run_src(STRAIGHT, machine=narrow)
    assert stats.cycles >= 64  # one instruction per cycle at best


def test_issue_width_bounds_throughput():
    narrow = MachineConfig(num_threads=1, issue_width=2)
    stats_narrow, _ = run_src(STRAIGHT, machine=narrow)
    stats_wide, _ = run_src(STRAIGHT)
    assert stats_narrow.cycles >= stats_wide.cycles


def test_fetch_width_bounds_throughput():
    narrow = MachineConfig(num_threads=1, fetch_width=1)
    stats, _ = run_src(STRAIGHT, machine=narrow)
    assert stats.cycles >= 64


def test_tiny_rob_still_correct():
    machine = MachineConfig(num_threads=1, rob_size=4, iq_size=4,
                            decode_buffer_size=4)
    stats, core = run_src(STRAIGHT, machine=machine)
    assert stats.committed_thread_insts == 65
    assert stats.rename_stalls_rob + stats.rename_stalls_iq > 0


def test_tiny_lsq_still_correct():
    src = "la r2, buf\n" + "\n".join(
        f"sw r2, {8 * i}(r2)" for i in range(16)
    ) + "\nhalt\n.data 0x1000\nbuf: .space 16"
    machine = MachineConfig(num_threads=1, lsq_size=2)
    stats, _ = run_src(src, machine=machine)
    assert stats.store_accesses == 16


def test_phys_reg_pressure_still_correct():
    machine = MachineConfig(num_threads=1, phys_regs=64)
    stats, core = run_src(STRAIGHT, machine=machine)
    assert stats.committed_thread_insts == 65
    assert core.regfile.high_water <= 64


def test_single_ldst_port_serialises():
    src = "la r2, buf\n" + "\n".join(
        f"lw r{3 + (i % 4)}, {8 * i}(r2)" for i in range(12)
    ) + "\nhalt\n.data 0x1000\nbuf: .space 12"
    one_port = MachineConfig(num_threads=1, ldst_ports=1)
    stats1, _ = run_src(src, machine=one_port)
    stats4, _ = run_src(src)
    assert stats1.cycles >= stats4.cycles
    assert stats1.load_accesses == stats4.load_accesses == 12


def test_trace_cache_helps_branchy_code():
    # Each jump skips a nop, so every jump is a *taken* transfer and
    # fetch without a trace cache must stop at each one.
    src = "\n".join(
        f"j l{i}\nnop\nl{i}: addi r1, r1, 1" for i in range(32)
    ) + "\nhalt"
    with_tc = MachineConfig(num_threads=1, trace_cache_enabled=True)
    without = MachineConfig(num_threads=1, trace_cache_enabled=False)
    stats_tc, _ = run_src(src, machine=with_tc)
    stats_plain, _ = run_src(src, machine=without)
    # Without a trace cache, fetch stops at every taken jump.
    assert stats_plain.cycles > stats_tc.cycles


def test_cold_caches_slower_than_warm():
    stats_warm, _ = run_src(STRAIGHT, warm=True)
    stats_cold, _ = run_src(STRAIGHT, warm=False)
    assert stats_cold.cycles > stats_warm.cycles
    assert stats_cold.icache_stall_cycles > 0


def test_stats_ipc_zero_before_running():
    from repro.pipeline.stats import SimStats

    assert SimStats().ipc() == 0.0


def test_mode_breakdown_empty():
    from repro.pipeline.stats import SimStats

    breakdown = SimStats().mode_breakdown()
    assert breakdown == {"merge": 0.0, "detect": 0.0, "catchup": 0.0}


def test_identified_breakdown_empty():
    from repro.pipeline.stats import SimStats

    breakdown = SimStats().identified_breakdown()
    assert breakdown["not_identical"] == 0.0


def test_lvip_entries_config_respected():
    import dataclasses

    config = dataclasses.replace(MMTConfig.mmt_fxr(), lvip_entries=64)
    build = build_workload(get_profile("equake"), 2, scale=0.2)
    core = SMTCore(MachineConfig(num_threads=2), config, build.job())
    assert core.lvip.entries == 64
    core.run()


def test_fhb_size_config_respected():
    config = MMTConfig.mmt_fxr().with_fhb_size(8)
    build = build_workload(get_profile("vpr"), 2, scale=0.2)
    core = SMTCore(MachineConfig(num_threads=2), config, build.job())
    assert all(fhb.size == 8 for fhb in core.sync.fhbs)
    core.run()


def test_merge_read_ports_config_respected():
    import dataclasses

    config = dataclasses.replace(MMTConfig.mmt_fxr(), merge_read_ports=1)
    build = build_workload(get_profile("equake"), 2, scale=0.2)
    core = SMTCore(MachineConfig(num_threads=2), config, build.job())
    assert core.regmerge.read_ports == 1
    core.run()


def test_cache_warming_matches_touching_every_word():
    """Warming skips an L2 access to the line it just touched; that must
    leave exactly the state of touching every initial data word."""
    from repro.isa.program import INST_BYTES
    from repro.mem.hierarchy import MemoryHierarchy

    build = build_workload(get_profile("ammp"), 2, scale=0.2)
    job = build.job()
    machine = MachineConfig(num_threads=2)
    core = SMTCore(machine, MMTConfig.mmt_fxr(), job)
    expected = MemoryHierarchy(machine.memory)
    program = job.programs[0]
    line = machine.memory.line_bytes
    for byte in range(0, len(program) * INST_BYTES, line):
        key = expected.l1i.line_key(0, byte)
        expected.l1i.access(key)
        expected.l2.access(key)
    for space in {id(s): s for s in job.address_spaces}.values():
        for addr in space.snapshot():
            expected.l2.access(expected.l2.line_key(space.asid, addr))
    for name in ("l1i", "l1d", "l2"):
        assert getattr(core.hierarchy, name)._sets == getattr(expected, name)._sets
        assert getattr(core.hierarchy, name).stats.accesses == 0
