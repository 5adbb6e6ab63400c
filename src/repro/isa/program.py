"""Program images.

A :class:`Program` is the linked output of the assembler (or of the workload
builder DSL): a flat list of :class:`~repro.isa.instruction.Instruction`
objects, resolved code labels, an initial data image, and data symbols.

The data image maps byte addresses (multiples of :data:`WORD_SIZE`) to
values; the memory model is value-level, one Python scalar per 8-byte word.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Mapping

from repro.isa.instruction import Instruction

#: Bytes per memory word; all loads/stores are word aligned.
WORD_SIZE = 8

#: Bytes per instruction slot for I-cache address purposes.
INST_BYTES = 4


class Program:
    """An executable program image."""

    def __init__(
        self,
        instructions: Iterable[Instruction],
        labels: Mapping[str, int] | None = None,
        data: Mapping[int, int | float] | None = None,
        symbols: Mapping[str, int] | None = None,
        entry: int = 0,
        name: str = "program",
    ) -> None:
        self.instructions: list[Instruction] = list(instructions)
        self.labels: dict[str, int] = dict(labels or {})
        self.data: dict[int, int | float] = dict(data or {})
        self.symbols: dict[str, int] = dict(symbols or {})
        self.entry = entry
        self.name = name
        self._digest: str | None = None
        self._validate()

    def _validate(self) -> None:
        n = len(self.instructions)
        for pc, inst in enumerate(self.instructions):
            if inst.target is not None and not 0 <= inst.target < n:
                raise ValueError(
                    f"{self.name}: instruction {pc} ({inst!r}) targets "
                    f"{inst.target}, outside program of {n} instructions"
                )
        for addr in self.data:
            if addr % WORD_SIZE != 0:
                raise ValueError(f"{self.name}: unaligned data address {addr:#x}")
        if self.instructions and not 0 <= self.entry < n:
            raise ValueError(f"{self.name}: entry {self.entry} out of range")

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, pc: int) -> Instruction:
        return self.instructions[pc]

    def label(self, name: str) -> int:
        """PC of code label *name*."""
        return self.labels[name]

    def symbol(self, name: str) -> int:
        """Byte address of data symbol *name*."""
        return self.symbols[name]

    def digest(self) -> str:
        """Content hash of the full image (code, data, entry).

        Two programs with the same digest are behaviourally identical, so
        per-program artefacts (lint verdicts, analysis reports) can be
        content-addressed on it, independent of the program *name*.

        The hash is computed once and cached: every consumer that keys on
        it (lint gate, oracle memo, trace recordings) treats the image as
        immutable once built, so mutating a program after its first
        ``digest()`` call is already a content-addressing violation.
        """
        if self._digest is not None:
            return self._digest
        h = hashlib.sha256()
        for inst in self.instructions:
            h.update(
                repr(
                    (inst.op.value, inst.rd, inst.rs1, inst.rs2, inst.imm, inst.target)
                ).encode()
            )
        h.update(repr(sorted(self.data.items())).encode())
        h.update(repr(self.entry).encode())
        self._digest = h.hexdigest()
        return self._digest

    def with_data(self, extra: Mapping[int, int | float]) -> "Program":
        """Return a copy of this program with *extra* merged into the data image.

        Used by multi-execution workloads to stamp per-instance input values
        into otherwise identical program images.
        """
        data = dict(self.data)
        data.update(extra)
        return Program(
            self.instructions,
            labels=self.labels,
            data=data,
            symbols=self.symbols,
            entry=self.entry,
            name=self.name,
        )
