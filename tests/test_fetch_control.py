"""Fetch-stage control flow: divergence kinds, prediction paths, groups."""

from repro.core.config import MMTConfig
from repro.core.sync import FetchMode
from repro.isa.assembler import assemble
from repro.pipeline.config import MachineConfig
from repro.pipeline.job import Job
from repro.pipeline.smt import SMTCore


def run_mt(src, threads=2, config=None, machine=None):
    prog = assemble(src)
    job = Job.multi_threaded("t", prog, threads)
    core = SMTCore(
        machine or MachineConfig(num_threads=threads),
        config or MMTConfig.mmt_fxr(),
        job,
    )
    stats = core.run()
    return stats, core, job, prog


def test_conditional_branch_divergence_and_remerge():
    src = """
        tid r1
        li r5, 0
        beq r1, r0, zero_path
        addi r5, r5, 100
        j join
    zero_path:
        addi r5, r5, 1
    join:
        li r6, 8
    tail: addi r6, r6, -1
        bne r6, r0, tail
        halt
    """
    stats, core, _, _ = run_mt(src)
    assert core.sync.stats.divergences >= 1
    assert core.sync.stats.remerges >= 1
    assert stats.fetched_by_mode[FetchMode.MERGE] > 0
    assert stats.fetched_by_mode[FetchMode.DETECT] > 0


def test_jr_divergence_via_return_addresses():
    """Threads call the same function from different sites: the shared JR
    has per-thread targets, a divergence the RAS predicts for one path."""
    src = """
        tid r1
        beq r1, r0, site_a
        call fn
        j done
    site_a:
        call fn
        call fn
    done:
        halt
    fn: addi r2, r2, 1
        ret
    """
    stats, core, _, _ = run_mt(src)
    assert stats.halted_threads == 2


def test_merged_jal_pushes_one_ras_entry_per_group():
    src = """
        li r5, 4
    loop:
        call fn
        addi r5, r5, -1
        bne r5, r0, loop
        halt
    fn: addi r2, r2, 1
        ret
    """
    stats, core, _, _ = run_mt(src)
    # Fully merged: only the leader's RAS is exercised.
    assert core.ras[0].pushes == 4
    assert core.ras[1].pushes == 0
    assert stats.branch_mispredicts < 8


def test_three_way_divergence_at_one_branch_sequence():
    src = """
        tid r1
        li r2, 1
        beq r1, r0, h0
        beq r1, r2, h1
        addi r5, r5, 30
        j join
    h0: addi r5, r5, 10
        j join
    h1: addi r5, r5, 20
        j join
    join:
        halt
    """
    stats, core, job, prog = run_mt(src, threads=3)
    assert stats.halted_threads == 3


def test_loop_exit_divergence_when_trip_counts_differ():
    src = """
        tid r1
        addi r2, r1, 2      # thread t spins 2+t times
    loop:
        addi r2, r2, -1
        bne r2, r0, loop
        halt
    """
    stats, core, _, _ = run_mt(src)
    assert core.sync.stats.divergences >= 1
    assert stats.halted_threads == 2


def test_fetch_modes_sum_to_fetched_insts():
    stats, _, _, _ = run_mt(
        """
        tid r1
        li r5, 6
    loop:
        beq r1, r0, even
        addi r6, r6, 1
        j next
    even:
        addi r6, r6, 2
    next:
        addi r5, r5, -1
        bne r5, r0, loop
        halt
        """
    )
    assert sum(stats.fetched_by_mode.values()) == stats.fetched_thread_insts


def test_base_config_has_singleton_groups_throughout():
    stats, core, _, _ = run_mt(
        "tid r1\nhalt", config=MMTConfig.base()
    )
    assert stats.fetched_by_mode[FetchMode.MERGE] == 0
    assert stats.fetched_entries == stats.fetched_thread_insts


def test_decode_buffer_cap_limits_runahead():
    machine = MachineConfig(num_threads=1, decode_buffer_size=2)
    src = "\n".join(["addi r1, r1, 1"] * 30) + "\nhalt"
    stats, core, _, _ = run_mt(src, threads=1, machine=machine)
    assert stats.committed_thread_insts == 31


def test_divergent_branch_counts_once_per_fetch():
    stats, core, _, _ = run_mt(
        """
        tid r1
        beq r1, r0, a
        addi r2, r2, 1
        j z
    a:  addi r2, r2, 2
    z:  halt
        """
    )
    assert stats.divergences_at_fetch == core.sync.stats.divergences
