"""The linter's undefined-read rules against their per-operand reference.

``lint._check_reaching`` walks each reachable block once, carrying the
registers with some reaching definition and the must-defined registers
forward from the block's IN states.  The reference below asks
:meth:`ReachingDefs.defs_of` and :meth:`MustDefined.at` afresh for every
source operand, as the rule is specified.  Both must emit the same
diagnostics in the same order on the lint fixture programs, on every
built-in and registry workload program, and on seeded random CFGs
(budget set by ``--runs``).  Every shipped workload lints clean, so the
random programs must fire each of the three rules, or the comparison
could pass without comparing anything.
"""

import random

import pytest

import repro.analysis.lint as lint
from repro.analysis.cfg import CFG
from repro.analysis.dataflow import must_defined, reaching_definitions
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import SP, reg_name
from repro.workloads.engine import get_workload, workload_names
from repro.workloads.generator import build_workload
from repro.workloads.message_passing import PATTERNS, build_mp_workload
from repro.workloads.profiles import APP_ORDER, get_profile
from tests import test_analysis_lint

SCALE = 0.2
#: Random programs per ``--runs`` case.
BATCH = 30
#: Tier-1 budget of random-program batches when ``--runs`` is not given.
DEFAULT_RUNS = 10
UNDEF_RULES = ("undef-read", "undef-read-must", "store-undef-base")

#: The single walk under test (the fixture tests below patch the name).
_walk = lint._check_reaching


def _reference_reaching(cfg, reachable, emit) -> None:
    """The undefined-read rules, one dataflow query per source operand."""
    rd = reaching_definitions(cfg, entry_regs=lint.ENTRY_DEFINED)
    md = must_defined(cfg, entry_regs=lint.ENTRY_DEFINED)
    for block in cfg.blocks:
        if block.bid not in reachable:
            continue
        for pc in block.pcs():
            inst = cfg.instructions[pc]
            for reg in inst.srcs:
                if rd.defs_of(pc, reg):
                    if reg not in md.at(pc):
                        emit(
                            "undef-read-must", pc,
                            f"{inst.op.value} reads {reg_name(reg)}, which "
                            "at least one path reaches with no definition",
                        )
                elif inst.is_store and reg == inst.rs1:
                    emit(
                        "store-undef-base", pc,
                        f"{inst.op.value} address base {reg_name(reg)} has "
                        "no reaching definition on any path",
                    )
                else:
                    emit(
                        "undef-read", pc,
                        f"{inst.op.value} reads {reg_name(reg)}, which no "
                        "path defines before this point",
                    )


def _emitted(check, cfg, reachable) -> list[tuple]:
    found: list[tuple] = []
    check(cfg, reachable, lambda *finding: found.append(finding))
    return found


def _compare(cfg) -> list[tuple]:
    """Both implementations' findings on *cfg*; returns the single walk's."""
    reachable = cfg.reachable() if cfg.instructions else set()
    walked = _emitted(_walk, cfg, reachable)
    assert walked == _emitted(_reference_reaching, cfg, reachable), cfg.name
    return walked


def _compare_program(program) -> None:
    _compare(CFG(program.instructions, entry=program.entry, name=program.name))


# --------------------------------------------------------- lint fixtures
_FIXTURE_TESTS = sorted(
    name for name in vars(test_analysis_lint) if name.startswith("test_")
)


def _compare_in_place(monkeypatch) -> list[tuple]:
    """Route the linter's rule through :func:`_compare`; returns the list
    the findings it emits are recorded in."""
    seen: list[tuple] = []

    def both(cfg, reachable, emit):
        for finding in _compare(cfg):
            seen.append(finding)
            emit(*finding)

    monkeypatch.setattr(lint, "_check_reaching", both)
    return seen


@pytest.mark.parametrize("name", _FIXTURE_TESTS)
def test_lint_fixture_programs(name, monkeypatch):
    """Each lint test's programs, checked by both implementations (the
    single walk's findings feed the test's own assertions)."""
    _compare_in_place(monkeypatch)
    getattr(test_analysis_lint, name)()


def test_fixture_comparison_is_reached(monkeypatch):
    """lint_instructions resolves the rule at call time, so the fixture
    programs really pass through the comparison."""
    seen = _compare_in_place(monkeypatch)
    test_analysis_lint.test_store_undef_base()
    assert [rule for rule, _, _ in seen] == ["store-undef-base"]


# ------------------------------------------------------------- workloads
@pytest.mark.parametrize("app", APP_ORDER)
def test_builtin_workload_programs(app):
    # Thread count and scale change immediates only, not the code shape.
    _compare_program(build_workload(get_profile(app), 4, scale=SCALE).program)
    _compare_program(build_workload(get_profile(app), 2, scale=SCALE,
                                    hints=True).program)


@pytest.mark.parametrize("pattern", PATTERNS)
def test_message_passing_programs(pattern):
    _compare_program(build_mp_workload(4, pattern=pattern).program)


@pytest.mark.parametrize("name", workload_names())
def test_registry_workload_programs(name):
    workload = get_workload(name)
    for nctx in (2, 4):
        if workload.valid_nctx(nctx):
            _compare_program(workload.build(nctx, scale=SCALE).program)


# ----------------------------------------------------------- random CFGs
def pytest_generate_tests(metafunc):
    if "batch_index" in metafunc.fixturenames:
        runs = metafunc.config.getoption("--runs") or DEFAULT_RUNS
        metafunc.parametrize("batch_index", range(runs))


#: A small register pool, so reads often meet no or partial definitions.
_REGS = (1, 2, 3, 4, 5, 6, SP)


def random_program(rng: random.Random) -> list[Instruction]:
    """A random instruction list with forward and backward branches,
    jumps, calls and returns, loads and stores, and HALTs."""
    n = rng.randint(4, 40)

    def reg() -> int:
        return rng.choice(_REGS)

    code = []
    for pc in range(n - 1):
        kind = rng.random()
        target = rng.randrange(n)
        if kind < 0.30:
            op = rng.choice((Opcode.ADD, Opcode.SUB, Opcode.MUL))
            code.append(Instruction(op, rd=reg(), rs1=reg(), rs2=reg()))
        elif kind < 0.45:
            code.append(Instruction(Opcode.ADDI, rd=reg(), rs1=reg(), imm=1))
        elif kind < 0.55:
            code.append(Instruction(Opcode.LI, rd=reg(), imm=pc))
        elif kind < 0.62:
            code.append(Instruction(Opcode.LW, rd=reg(), rs1=reg(), imm=0))
        elif kind < 0.72:
            code.append(Instruction(Opcode.SW, rs1=reg(), rs2=reg(), imm=0))
        elif kind < 0.86:
            op = rng.choice((Opcode.BEQ, Opcode.BNE, Opcode.BLT))
            code.append(Instruction(op, rs1=reg(), rs2=reg(), target=target))
        elif kind < 0.90:
            code.append(Instruction(Opcode.J, target=target))
        elif kind < 0.93:
            code.append(Instruction(Opcode.JAL, rd=31, target=target))
        elif kind < 0.95:
            code.append(Instruction(Opcode.JR, rs1=31))
        elif kind < 0.97:
            code.append(Instruction(Opcode.HALT))
        else:
            code.append(Instruction(Opcode.NOP))
    code.append(Instruction(Opcode.HALT))
    return code


def test_random_cfgs(batch_index):
    rng = random.Random(20_000 + batch_index)
    fired = set()
    for i in range(BATCH):
        code = random_program(rng)
        entry = rng.randrange(len(code)) if i % 5 == 0 else 0
        cfg = CFG(code, entry=entry, name=f"random-{batch_index}-{i}")
        fired.update(rule for rule, _, _ in _compare(cfg))
    assert fired >= set(UNDEF_RULES)
