"""Workload generator: determinism, structure, functional sanity."""

import pytest

from repro.core.config import WorkloadType
from repro.func.executor import FunctionalExecutor
from repro.workloads.dsl import ProgramBuilder
from repro.workloads.generator import build_workload
from repro.workloads.profiles import APP_ORDER, PROFILES, get_profile


# ------------------------------------------------------------------ profiles
def test_sixteen_applications():
    assert len(PROFILES) == 16
    assert len(APP_ORDER) == 16
    assert set(APP_ORDER) == set(PROFILES)


def test_suite_composition_matches_table1():
    by_suite = {}
    for profile in PROFILES.values():
        by_suite.setdefault(profile.suite, []).append(profile.name)
    assert len(by_suite["spec2000"]) == 6
    assert len(by_suite["svm"]) == 1
    assert len(by_suite["splash2"]) == 5
    assert len(by_suite["parsec"]) == 4


def test_workload_types_match_paper():
    for name in ("ammp", "equake", "mcf", "twolf", "vortex", "vpr", "libsvm"):
        assert PROFILES[name].wtype is WorkloadType.MULTI_EXECUTION
    for name in ("lu", "fft", "ocean", "water-ns", "water-sp",
                 "blackscholes", "swaptions", "fluidanimate", "canneal"):
        assert PROFILES[name].wtype is WorkloadType.MULTI_THREADED


def test_unknown_profile_raises_with_suggestions():
    with pytest.raises(KeyError) as excinfo:
        get_profile("gcc")
    assert "ammp" in str(excinfo.value)


# ----------------------------------------------------------------- generator
def test_generation_is_deterministic():
    a = build_workload(get_profile("ammp"), 2)
    b = build_workload(get_profile("ammp"), 2)
    assert len(a.program) == len(b.program)
    for x, y in zip(a.program.instructions, b.program.instructions):
        assert x.op is y.op and x.imm == y.imm and x.target == y.target
    assert a.program.data == b.program.data
    assert a.per_instance_data == b.per_instance_data


def test_different_apps_differ():
    a = build_workload(get_profile("ammp"), 2)
    b = build_workload(get_profile("twolf"), 2)
    assert len(a.program) != len(b.program) or a.program.data != b.program.data


def test_scale_controls_work():
    small = build_workload(get_profile("lu"), 2, scale=0.5)
    large = build_workload(get_profile("lu"), 2, scale=1.0)
    assert small.out_words < large.out_words


def test_me_instances_have_overlays():
    build = build_workload(get_profile("equake"), 2)
    assert build.per_instance_data[0] == {}
    assert len(build.per_instance_data[1]) > 0


def test_mt_has_no_overlays():
    build = build_workload(get_profile("lu"), 2)
    assert build.per_instance_data == [{}]


@pytest.mark.parametrize("app", APP_ORDER)
def test_every_app_runs_functionally(app):
    build = build_workload(get_profile(app), 2, scale=0.3)
    job = build.job()
    for state in job.make_states():
        retired = FunctionalExecutor(state).run(max_steps=500_000)
        assert retired > 50
        assert state.halted


def test_mt_threads_write_disjoint_output_slices():
    build = build_workload(get_profile("fft"), 2, scale=0.3)
    job = build.job()
    for state in job.make_states():
        FunctionalExecutor(state).run(max_steps=500_000)
    outs = build.output_region(job)
    # Each slice ends with checksums of per-thread accumulators seeded by
    # tid, so slices must differ (a collision would indicate overlap).
    assert outs[0] != outs[1]
    assert any(v != 0 for v in outs[0])
    assert any(v != 0 for v in outs[1])


def test_me_instances_identical_when_inputs_identical():
    build = build_workload(get_profile("libsvm"), 2, scale=0.3)
    job = build.limit_job()
    for state in job.make_states():
        FunctionalExecutor(state).run(max_steps=500_000)
    outs = build.output_region(job)
    assert outs[0] == outs[1]


def test_nctx_validation():
    with pytest.raises(ValueError):
        build_workload(get_profile("ammp"), 0)


# ----------------------------------------------------------------------- DSL
def test_builder_forward_labels():
    from repro.isa.opcodes import Opcode

    b = ProgramBuilder("t")
    b.branch(Opcode.BEQ, 1, 0, "end")
    b.alui(Opcode.ADDI, 1, 1, 1)
    b.label("end")
    b.halt()
    prog = b.build()
    assert prog[0].target == 2


def test_builder_undefined_label_rejected():
    b = ProgramBuilder("t")
    b.jump("nowhere")
    with pytest.raises(ValueError):
        b.build()


def test_builder_duplicate_label_rejected():
    b = ProgramBuilder("t")
    b.label("x")
    with pytest.raises(ValueError):
        b.label("x")


def test_builder_arrays_and_symbols():
    b = ProgramBuilder("t")
    base = b.array("data", [1, 2, 3])
    reserved = b.reserve("buf", 2)
    assert reserved == base + 24
    assert b.symbol("buf") == reserved
    b.halt()
    prog = b.build()
    assert prog.data[base + 8] == 2
    assert prog.data[reserved] == 0


def test_builder_fresh_labels_unique():
    b = ProgramBuilder("t")
    first = b.fresh_label("L")
    b.label(first)
    second = b.fresh_label("L")
    assert first != second
