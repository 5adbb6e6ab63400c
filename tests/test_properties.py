"""Property-based end-to-end checks (hypothesis).

The central invariant of the whole repository: for *any* terminating SPMD
program, every machine configuration — Base SMT, MMT-F, MMT-FX, MMT-FXR —
retires the same instructions and leaves byte-identical architectural
state, equal to a pure functional execution.  Random programs exercise
combinations of divergence, sharing, memory traffic, and LVIP behaviour
that hand-written tests cannot anticipate; the pipeline's strict oracle
checks are armed throughout, so any mis-merge aborts loudly.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import MMTConfig
from repro.func.executor import FunctionalExecutor
from repro.isa.opcodes import Opcode
from repro.pipeline.config import MachineConfig
from repro.pipeline.job import Job
from repro.pipeline.smt import SMTCore
from repro.workloads.dsl import ProgramBuilder

_ALU = (Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.AND, Opcode.OR, Opcode.MUL)

# Register plan for generated programs.
ACCS = (1, 2, 3, 4, 5, 6)
BASE_REG = 9
TMP = 10
TID = 11
COUNTER = 12
LIMIT = 13
TID_STRIDE = 14  # tid * 128 bytes: per-thread output slice (race freedom)

ARRAY_WORDS = 16


def build_random_program(draw_ops, trips, use_tid, branch_on_memory):
    """A terminating SPMD program from a hypothesis-drawn op list."""
    b = ProgramBuilder("prop")
    b.array("arr", list(range(1, ARRAY_WORDS + 1)))
    # Four per-thread slices of 16 words each, plus per-thread checksums:
    # threads never write the same word, so any execution order agrees.
    b.reserve("out", ARRAY_WORDS * 4 + 8 * 4)
    if use_tid:
        b.inst(Opcode.TID, rd=TID)
    else:
        b.li(TID, 0)
    b.alui(Opcode.SLLI, TID_STRIDE, TID, 7)  # tid * 128 bytes
    for index, reg in enumerate(ACCS):
        b.alui(Opcode.ADDI, reg, TID, index + 1)
    b.la(BASE_REG, "arr")
    b.li(COUNTER, 0)
    b.li(LIMIT, trips)
    b.label("loop")
    for kind, a_index, b_index, imm in draw_ops:
        dst = ACCS[a_index]
        src = ACCS[b_index]
        if kind == "alu":
            b.alu(_ALU[imm % len(_ALU)], dst, dst, src)
        elif kind == "alui":
            b.alui(Opcode.ADDI, dst, dst, imm)
        elif kind == "load":
            b.alui(Opcode.ANDI, TMP, src, ARRAY_WORDS - 1)
            b.alui(Opcode.SLLI, TMP, TMP, 3)
            b.alu(Opcode.ADD, TMP, TMP, BASE_REG)
            b.load(dst, TMP, disp=0)
        elif kind == "store":
            b.alui(Opcode.ANDI, TMP, src, ARRAY_WORDS - 1)
            b.alui(Opcode.SLLI, TMP, TMP, 3)
            b.alu(Opcode.ADD, TMP, TMP, BASE_REG)
            b.alu(Opcode.ADD, TMP, TMP, TID_STRIDE)
            b.store(dst, TMP, disp=ARRAY_WORDS * 8)  # own 'out' slice
        elif kind == "branch" and branch_on_memory:
            skip = b.fresh_label("skip")
            b.alui(Opcode.ANDI, TMP, dst, 1)
            b.branch(Opcode.BEQ, TMP, 0, skip)
            b.alui(Opcode.ADDI, src, src, 3)
            b.label(skip)
    b.alui(Opcode.ADDI, COUNTER, COUNTER, 1)
    b.branch(Opcode.BLT, COUNTER, LIMIT, "loop")
    out = b.symbol("out")
    b.li(TMP, out + ARRAY_WORDS * 4 * 8)
    b.alu(Opcode.ADD, TMP, TMP, TID_STRIDE)
    for offset, reg in enumerate(ACCS):
        b.store(reg, TMP, disp=offset * 8)
    b.halt()
    return b.build()


op_strategy = st.tuples(
    st.sampled_from(["alu", "alui", "load", "store", "branch"]),
    st.integers(0, len(ACCS) - 1),
    st.integers(0, len(ACCS) - 1),
    st.integers(-16, 16),
)

program_strategy = st.tuples(
    st.lists(op_strategy, min_size=3, max_size=12),
    st.integers(2, 6),  # loop trips
    st.booleans(),  # use_tid (per-context divergence of values)
    st.booleans(),  # data-dependent branches
)

CONFIGS = [MMTConfig.mmt_f(), MMTConfig.mmt_fx(), MMTConfig.mmt_fxr()]


def functional_reference(job):
    states = job.make_states()
    for state in states:
        FunctionalExecutor(state).run(max_steps=100_000)
    return [space.snapshot() for space in job.address_spaces]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program_strategy)
def test_mt_configs_match_functional(params):
    ops, trips, use_tid, branchy = params
    program = build_random_program(ops, trips, use_tid, branchy)
    reference = functional_reference(Job.multi_threaded("p", program, 2))
    for config in [MMTConfig.base()] + CONFIGS:
        job = Job.multi_threaded("p", program, 2)
        core = SMTCore(MachineConfig(num_threads=2), config, job)
        stats = core.run()
        assert [s.snapshot() for s in job.address_spaces] == reference, config.name
        assert stats.halted_threads == 2


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program_strategy, st.dictionaries(st.integers(0, ARRAY_WORDS - 1),
                                         st.integers(1, 99), max_size=4))
def test_me_configs_match_functional(params, overlay_words):
    ops, trips, _use_tid, branchy = params
    program = build_random_program(ops, trips, False, branchy)
    arr = program.symbol("arr")
    overlay = {arr + 8 * k: v for k, v in overlay_words.items()}
    reference = functional_reference(
        Job.multi_execution("p", program, [{}, overlay])
    )
    for config in [MMTConfig.base()] + CONFIGS:
        job = Job.multi_execution("p", program, [{}, overlay])
        core = SMTCore(MachineConfig(num_threads=2), config, job)
        core.run()
        assert [s.snapshot() for s in job.address_spaces] == reference, config.name


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program_strategy)
def test_four_context_mt(params):
    ops, trips, use_tid, branchy = params
    program = build_random_program(ops, trips, use_tid, branchy)
    reference = functional_reference(Job.multi_threaded("p", program, 4))
    job = Job.multi_threaded("p", program, 4)
    core = SMTCore(MachineConfig(num_threads=4), MMTConfig.mmt_fxr(), job)
    core.run()
    assert [s.snapshot() for s in job.address_spaces] == reference
