"""Static instruction representation.

An :class:`Instruction` is one decoded static instruction of a program.
Source and destination architected registers are precomputed at construction
so that the hot pipeline loops never re-derive them.

PCs are instruction indices (the I-cache model multiplies by 4 to obtain a
byte address).  Branch/jump targets are therefore instruction indices too;
the assembler resolves labels into the ``target`` field.
"""

from __future__ import annotations

from repro.isa.opcodes import (
    DEFAULT_LATENCY,
    OpClass,
    Opcode,
    is_branch,
    is_control,
    is_jump,
    is_load,
    is_mem,
    is_store,
    op_class,
)
from repro.isa.registers import ZERO, reg_name


class Instruction:
    """One static instruction.

    Parameters mirror a classic three-operand RISC encoding:

    * ``rd`` — destination architected register (or ``None``).
    * ``rs1``/``rs2`` — source architected registers (or ``None``).
    * ``imm`` — immediate (ALU immediate, memory displacement, LI constant).
    * ``target`` — control-flow target as an instruction index.
    """

    __slots__ = (
        "op",
        "rd",
        "rs1",
        "rs2",
        "imm",
        "target",
        "klass",
        "latency",
        "srcs",
        "dst",
        "is_branch",
        "is_jump",
        "is_control",
        "is_load",
        "is_store",
        "is_mem",
    )

    def __init__(
        self,
        op: Opcode,
        rd: int | None = None,
        rs1: int | None = None,
        rs2: int | None = None,
        imm: int | float | None = None,
        target: int | None = None,
    ) -> None:
        self.op = op
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.target = target
        self.klass: OpClass = op_class(op)
        #: Functional-unit latency of the class, precomputed so the issue
        #: stage never hashes the enum per instruction.
        self.latency: int = DEFAULT_LATENCY[self.klass]
        self.is_branch = is_branch(op)
        self.is_jump = is_jump(op)
        self.is_control = is_control(op)
        self.is_load = is_load(op)
        self.is_store = is_store(op)
        self.is_mem = is_mem(op)

        srcs = []
        if rs1 is not None and rs1 != ZERO:
            srcs.append(rs1)
        if rs2 is not None and rs2 != ZERO and rs2 != rs1:
            srcs.append(rs2)
        # Reads of r0 are constant and never create dependences, so they are
        # dropped from the source list (they also never split a merged
        # instruction: the zero register trivially holds identical values).
        self.srcs: tuple[int, ...] = tuple(srcs)
        # Writes to r0 are discarded.
        self.dst: int | None = rd if (rd is not None and rd != ZERO) else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.op.value]
        if self.rd is not None:
            parts.append(reg_name(self.rd))
        if self.rs1 is not None:
            parts.append(reg_name(self.rs1))
        if self.rs2 is not None:
            parts.append(reg_name(self.rs2))
        if self.imm is not None:
            parts.append(str(self.imm))
        if self.target is not None:
            parts.append(f"@{self.target}")
        return f"<{' '.join(parts)}>"
