"""Guest-program linter: CFG/dataflow rules over assembled programs.

Every rule emits structured :class:`Diagnostic` records (rule id,
severity, PC, block id, message); rules are individually suppressible by
id.  The rules are pre-simulation correctness gates: a program that lints
clean cannot branch outside its image, run off the end, spin forever
without an exit, read registers no path ever wrote, or feed fp registers
to integer datapaths — the workload-generator bug classes that otherwise
surface as baffling mid-simulation divergences.

Rule catalogue (see docs/static-analysis.md):

========================  ========  =====================================
rule id                   severity  fires on
========================  ========  =====================================
``bad-target``            error     control target missing / outside image
``fall-off-end``          error     fall-through past the last instruction
``infinite-loop``         error     cycle with no exit edge and no HALT
``reg-class``             error     operand violates the opcode signature
``store-undef-base``      error     store base register never written
``undef-read``            warning   read with no reaching definition
``undef-read-must``       warning   read *some* path reaches undefined
``unreachable-block``     warning   block unreachable from the entry
========================  ========  =====================================

``undef-read`` is a may-analysis (it fires only when *no* path defines
the register); ``undef-read-must`` is its must-analysis sharpening: it
fires when at least one path reaches the read without a definition,
catching conditionally-undefined reads — an if-branch that skips the
initialisation — that the may-rule is structurally blind to.  The two
rules partition the undefined-read space, so a single read never
triggers both.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import must_defined, reaching_definitions
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import SP, ZERO, is_fp_reg, is_int_reg, reg_name

ERROR = "error"
WARNING = "warning"

#: rule id -> (severity, one-line description).
RULES: dict[str, tuple[str, str]] = {
    "bad-target": (ERROR, "control-flow target missing or outside the image"),
    "fall-off-end": (ERROR, "execution can fall through past the image end"),
    "infinite-loop": (ERROR, "cycle with no exit edge and no HALT inside"),
    "reg-class": (ERROR, "operand violates the opcode's register-class signature"),
    "store-undef-base": (ERROR, "store address base register is never written"),
    "undef-read": (WARNING, "register read with no reaching definition"),
    "undef-read-must": (
        WARNING, "register read that some path reaches with no definition"
    ),
    "unreachable-block": (WARNING, "basic block unreachable from the entry"),
}

#: Registers defined by hardware before the first instruction executes.
ENTRY_DEFINED = (ZERO, SP)


class Diagnostic:
    """One linter finding."""

    __slots__ = ("rule", "severity", "pc", "block", "message")

    def __init__(
        self, rule: str, severity: str, pc: int, block: int, message: str
    ) -> None:
        self.rule = rule
        self.severity = severity
        self.pc = pc
        self.block = block
        self.message = message

    def __str__(self) -> str:
        return f"pc {self.pc} [B{self.block}] {self.severity} {self.rule}: {self.message}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Diagnostic {self}>"


# ------------------------------------------------------ opcode signatures
_I = "i"
_F = "f"
# op -> (rd class, rs1 class, rs2 class); None = operand must be absent.
_III = (_I, _I, _I)
_II_ = (_I, _I, None)
_I__ = (_I, None, None)
_FFF = (_F, _F, _F)
_FF_ = (_F, _F, None)
_SIG: dict[Opcode, tuple[str | None, str | None, str | None]] = {
    Opcode.ADD: _III, Opcode.SUB: _III, Opcode.MUL: _III, Opcode.DIV: _III,
    Opcode.REM: _III, Opcode.AND: _III, Opcode.OR: _III, Opcode.XOR: _III,
    Opcode.SLL: _III, Opcode.SRL: _III, Opcode.SRA: _III, Opcode.SLT: _III,
    Opcode.SEQ: _III,
    Opcode.ADDI: _II_, Opcode.ANDI: _II_, Opcode.ORI: _II_, Opcode.XORI: _II_,
    Opcode.SLLI: _II_, Opcode.SRLI: _II_, Opcode.SLTI: _II_,
    Opcode.LI: _I__, Opcode.FLI: (_F, None, None),
    Opcode.FADD: _FFF, Opcode.FSUB: _FFF, Opcode.FMUL: _FFF, Opcode.FDIV: _FFF,
    Opcode.FMIN: _FFF, Opcode.FMAX: _FFF,
    Opcode.FSQRT: _FF_, Opcode.FNEG: _FF_, Opcode.FABS: _FF_,
    Opcode.FCVT: (_F, _I, None), Opcode.FTOI: (_I, _F, None),
    Opcode.FSLT: (_I, _F, _F), Opcode.FSEQ: (_I, _F, _F),
    Opcode.LW: _II_, Opcode.FLW: (_F, _I, None),
    Opcode.SW: (None, _I, _I), Opcode.FSW: (None, _I, _F),
    Opcode.BEQ: (None, _I, _I), Opcode.BNE: (None, _I, _I),
    Opcode.BLT: (None, _I, _I), Opcode.BGE: (None, _I, _I),
    Opcode.J: (None, None, None), Opcode.JAL: (_I, None, None),
    Opcode.JR: (None, _I, None),
    Opcode.SEND: (None, _I, _I), Opcode.TRECV: _II_,
    Opcode.TID: _I__, Opcode.NCTX: _I__,
    Opcode.NOP: (None, None, None), Opcode.HALT: (None, None, None),
    Opcode.HINT: (None, None, None),
}

#: Opcodes whose ``imm`` field is required.
_NEEDS_IMM = frozenset({
    Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SLLI,
    Opcode.SRLI, Opcode.SLTI, Opcode.LI, Opcode.FLI,
    Opcode.LW, Opcode.SW, Opcode.FLW, Opcode.FSW,
})


def _class_ok(reg: int, want: str) -> bool:
    return is_int_reg(reg) if want == _I else is_fp_reg(reg)


def rule_catalogue() -> dict[str, tuple[str, str]]:
    """Copy of the rule id -> (severity, description) table."""
    return dict(RULES)


def lint_program(
    program: Program, suppress: Collection[str] = ()
) -> list[Diagnostic]:
    """Lint a linked program; returns diagnostics in PC order."""
    return lint_instructions(
        program.instructions,
        entry=program.entry,
        name=program.name,
        suppress=suppress,
    )


def lint_instructions(
    instructions: Sequence[Instruction],
    entry: int = 0,
    name: str = "program",
    suppress: Collection[str] = (),
) -> list[Diagnostic]:
    """Lint a raw instruction sequence (pre-:class:`Program` images too)."""
    unknown = set(suppress) - set(RULES)
    if unknown:
        raise ValueError(f"unknown lint rule(s): {sorted(unknown)}")
    cfg = CFG(instructions, entry=entry, name=name)
    findings: list[Diagnostic] = []

    def emit(rule: str, pc: int, message: str) -> None:
        if rule in suppress:
            return
        severity = RULES[rule][0]
        block = cfg.block_of[pc] if cfg.block_of else 0
        findings.append(Diagnostic(rule, severity, pc, block, message))

    if not cfg.instructions:
        return findings
    reachable = cfg.reachable()

    _check_targets(cfg, emit)
    _check_unreachable(cfg, reachable, emit)
    _check_fall_off_end(cfg, reachable, emit)
    _check_infinite_loops(cfg, reachable, emit)
    _check_reg_classes(cfg, emit)
    _check_reaching(cfg, reachable, emit)

    findings.sort(key=lambda d: (d.pc, d.rule))
    return findings


# ----------------------------------------------------------------- checks
def _check_targets(cfg: CFG, emit) -> None:
    n = len(cfg.instructions)
    for pc, inst in enumerate(cfg.instructions):
        if inst.op is Opcode.JR:
            continue  # indirect; modelled through return sites
        if inst.is_control:
            if inst.target is None:
                emit("bad-target", pc, f"{inst.op.value} has no target")
            elif not 0 <= inst.target < n:
                emit(
                    "bad-target", pc,
                    f"{inst.op.value} targets {inst.target}, outside the "
                    f"{n}-instruction image",
                )


def _check_unreachable(cfg: CFG, reachable: set[int], emit) -> None:
    for block in cfg.blocks:
        if block.bid not in reachable:
            emit(
                "unreachable-block", block.start,
                f"block [{block.start}..{block.end}) is unreachable "
                "from the entry",
            )


def _check_fall_off_end(cfg: CFG, reachable: set[int], emit) -> None:
    for pc in sorted(cfg.falls_off_end):
        if cfg.block_of[pc] in reachable:
            emit(
                "fall-off-end", pc,
                f"{cfg.instructions[pc].op.value} at the image end falls "
                "through past the last instruction",
            )


def _check_infinite_loops(cfg: CFG, reachable: set[int], emit) -> None:
    for component in cfg.sccs():
        members = set(component)
        if not members & reachable:
            continue
        is_cycle = len(component) > 1 or any(
            bid in cfg.blocks[bid].succs for bid in component
        )
        if not is_cycle:
            continue
        has_exit = any(
            succ not in members
            for bid in component
            for succ in cfg.blocks[bid].succs
        )
        has_halt = any(
            cfg.instructions[pc].op is Opcode.HALT
            for bid in component
            for pc in cfg.blocks[bid].pcs()
        )
        if not has_exit and not has_halt:
            head = min(cfg.blocks[bid].start for bid in component)
            emit(
                "infinite-loop", head,
                f"cycle through block(s) {sorted(component)} has no exit "
                "edge and contains no HALT",
            )


def _check_reg_classes(cfg: CFG, emit) -> None:
    for pc, inst in enumerate(cfg.instructions):
        sig = _SIG[inst.op]
        for field, want in zip(("rd", "rs1", "rs2"), sig):
            reg = getattr(inst, field)
            if want is None:
                if reg is not None:
                    emit(
                        "reg-class", pc,
                        f"{inst.op.value} must not carry {field} "
                        f"(got {reg_name(reg)})",
                    )
            elif reg is None:
                emit("reg-class", pc, f"{inst.op.value} requires {field}")
            elif not _class_ok(reg, want):
                kind = "integer" if want == _I else "floating-point"
                emit(
                    "reg-class", pc,
                    f"{inst.op.value} {field} must be an {kind} register, "
                    f"got {reg_name(reg)}",
                )
        if inst.op in _NEEDS_IMM and inst.imm is None:
            emit("reg-class", pc, f"{inst.op.value} requires an immediate")


def _check_reaching(cfg: CFG, reachable: set[int], emit) -> None:
    rd = reaching_definitions(cfg, entry_regs=ENTRY_DEFINED)
    md = must_defined(cfg, entry_regs=ENTRY_DEFINED)
    for block in cfg.blocks:
        if block.bid not in reachable:
            continue
        # One walk per block, carrying what ReachingDefs.defs_of and
        # MustDefined.at would rebuild per operand: registers with some
        # reaching definition, and registers defined on every path.
        may = {reg for _, reg in rd.block_in[block.bid]}
        must = set(md.block_in[block.bid])
        for pc in block.pcs():
            inst = cfg.instructions[pc]
            for reg in inst.srcs:
                if reg in may:
                    if reg not in must:
                        # Defined on some path (rd hit) but not on every
                        # path: conditionally undefined.
                        emit(
                            "undef-read-must", pc,
                            f"{inst.op.value} reads {reg_name(reg)}, which "
                            "at least one path reaches with no definition",
                        )
                    continue
                if inst.is_store and reg == inst.rs1:
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
            if inst.dst is not None:
                may.add(inst.dst)
                must.add(inst.dst)
