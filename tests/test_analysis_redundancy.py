"""Static redundancy oracle: classification, bounds, and soundness.

The load-bearing tests here are the *soundness* checks: for real
multi-threaded workloads the static merge-fraction upper bound must
dominate the dynamically measured fetch-merge fraction, and the static
RST upper bound must dominate the final dynamic sharing fraction
(ISSUE acceptance criterion).
"""

import pytest

from repro.analysis.redundancy import (
    CONTROL_DIVERGENT,
    analyze_build,
    analyze_program,
)
from repro.core.config import MMTConfig
from repro.isa.assembler import assemble
from repro.isa.registers import SP
from repro.pipeline.config import MachineConfig
from repro.pipeline.smt import SMTCore
from repro.workloads.generator import build_workload
from repro.workloads.profiles import get_profile

TID_BRANCH = """
    tid r1
    li r2, 0
    beq r1, r0, Lzero
    addi r2, r2, 1
    addi r2, r2, 1
    addi r2, r2, 1
    j Lend
Lzero:
    li r3, 7
Lend:
    halt
"""


# --------------------------------------------------------- must-divergence
def test_tid_branch_must_diverge():
    prog = assemble(TID_BRANCH)
    report = analyze_program(prog, nctx=2, sp_divergent=True)
    assert report.must_diverge_branches == [2]
    assert report.merge_upper_bound < 1.0
    # Blocks between the branch and the join are control-divergent.
    assert CONTROL_DIVERGENT in report.block_classes


def test_single_context_never_diverges():
    prog = assemble(TID_BRANCH)
    report = analyze_program(prog, nctx=1)
    assert report.must_diverge_branches == []
    assert report.merge_upper_bound == 1.0
    assert report.rst_upper_bound == 1.0


def test_unsatisfiable_tid_compare_is_uniform():
    # r1 = tid + 5 is in {5, 6} for nctx=2; it never equals zero, so every
    # thread falls through: no divergence despite the tid dependence.
    prog = assemble(
        """
    tid r1
    addi r1, r1, 5
    beq r1, r0, Lskip
    li r2, 1
Lskip:
    halt
"""
    )
    report = analyze_program(prog, nctx=2)
    assert report.must_diverge_branches == []
    assert report.merge_upper_bound == 1.0


def test_blt_on_tid_diverges_at_endpoints():
    # tid < 1 is true for thread 0 and false for thread 1.
    prog = assemble(
        """
    tid r1
    li r2, 1
    blt r1, r2, Llow
    addi r3, r0, 2
Llow:
    halt
"""
    )
    report = analyze_program(prog, nctx=2)
    assert report.must_diverge_branches == [2]


def test_affine_cancellation_is_uniform():
    # r2 = tid, r3 = tid: their difference is 0 for every thread, so a
    # beq r2, r3 compare is uniform even though both operands vary.
    prog = assemble(
        """
    tid r1
    addi r2, r1, 0
    addi r3, r1, 0
    beq r2, r3, Lsame
    li r4, 1
Lsame:
    halt
"""
    )
    report = analyze_program(prog, nctx=4)
    assert report.must_diverge_branches == []
    assert report.merge_upper_bound == 1.0


# ------------------------------------------------------- exit register set
def test_tid_register_must_differ_at_exit():
    prog = assemble("tid r1\nhalt")
    report = analyze_program(prog, nctx=2, sp_divergent=True)
    assert 1 in report.diverging_exit_regs
    assert SP in report.diverging_exit_regs
    assert report.rst_upper_bound < 1.0


def test_overwritten_tid_is_shared_again():
    prog = assemble("tid r1\nli r1, 0\nhalt")
    report = analyze_program(prog, nctx=2, sp_divergent=False)
    assert 1 not in report.diverging_exit_regs
    assert report.rst_upper_bound == 1.0


def test_affine_chain_stays_divergent():
    # r2 = 3*tid + 10 is injective in tid: must still differ at exit.
    prog = assemble(
        """
    tid r1
    li r3, 3
    mul r2, r1, r3
    addi r2, r2, 10
    halt
"""
    )
    report = analyze_program(prog, nctx=4, sp_divergent=False)
    assert 2 in report.diverging_exit_regs


# ----------------------------------------------------- soundness vs dynamic
@pytest.mark.parametrize("app", ["lu", "fft"])
def test_oracle_bounds_dominate_dynamic_run(app):
    """Acceptance criterion: static upper bounds >= measured fractions."""
    threads = 2
    build = build_workload(get_profile(app), threads, scale=0.4)
    report = analyze_build(build)
    job = build.job()
    core = SMTCore(
        MachineConfig(num_threads=threads), MMTConfig.mmt_fxr(), job
    )
    stats = core.run()
    measured_merge = stats.mode_breakdown()["merge"]
    measured_sharing = core.rst.sharing_fraction(threads)
    assert report.merge_upper_bound >= measured_merge
    assert report.rst_upper_bound >= measured_sharing
    assert report.validate_against(stats, rst_sharing=measured_sharing) == []


def test_validate_against_flags_violations():
    build = build_workload(get_profile("lu"), 2, scale=0.4)
    report = analyze_build(build)
    job = build.job()
    core = SMTCore(
        MachineConfig(num_threads=2), MMTConfig.mmt_fxr(), job
    )
    stats = core.run()
    # Force impossible bounds: the validation hook must complain.
    report.merge_upper_bound = 0.0
    report.rst_upper_bound = 0.0
    problems = report.validate_against(
        stats, rst_sharing=core.rst.sharing_fraction(2)
    )
    assert len(problems) == 2
    assert any("merge" in p for p in problems)
    assert any("RST" in p for p in problems)


def test_report_summary_mentions_bounds():
    prog = assemble("tid r1\nhalt")
    report = analyze_program(prog, nctx=2)
    line = report.summary()
    assert "merge<=" in line and "rst<=" in line
