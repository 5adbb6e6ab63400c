"""Dynamic (in-flight) instructions."""

from __future__ import annotations

import enum

from repro.core.itid import POPCOUNT, THREADS_OF
from repro.core.sync import FetchMode
from repro.func.executor import Executed
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode


class InstState(enum.Enum):
    """Lifecycle of a dynamic instruction in the window."""

    DECODED = "decoded"  # in the decode buffer, pre-split/rename
    WAITING = "waiting"  # in the issue queue, sources not all ready
    ISSUED = "issued"  # sent to a functional unit
    WAITING_MEM = "waiting_mem"  # load waiting for LSQ/port/MSHR/forwarding
    DONE = "done"  # result written back
    COMMITTED = "committed"


class DynInst:
    """One instruction-window entry.

    A DynInst may be owned by several threads (``itid``): it then occupies a
    single slot in every pipeline structure and, unless split, executes once
    for all owners.  ``execs`` maps each owning thread to its functional
    oracle record, carrying the true operand values, result, memory address,
    and next PC for that thread.

    Fields that every entry starts with the same immutable value are class
    attributes, so construction stores only the per-instruction fields (plus
    the mutable ``psrcs`` and ``prev_map``); the first write to any other
    field shadows its class default on the instance.  Deliberately *not*
    ``__slots__``: the fast engine initialises entries by installing a
    prototype ``__dict__`` copy, which needs a plain instance dict.  The
    reference fetch stage also builds entries inline (``DynInst.__new__``
    plus the stores ``__init__`` makes), so keep the two in step.
    """

    state = InstState.DECODED
    #: Physical destination (merged case) or None.
    pdst: int | None = None
    #: Per-thread destinations after an LVIP-triggered split, else None.
    pdst_by_tid: dict[int, int] | None = None
    #: True when the splitter kept this merged only thanks to RST bits
    #: that were set by commit-time register merging (Figure 5(b)).
    merged_via_regmerge = False
    #: True when the instruction executes once for >=2 threads.
    is_exec_merged = False
    complete_cycle: int | None = None
    pred_taken: bool | None = None
    pred_target: int | None = None
    mispredicted = False
    lvip_predicted_identical: bool | None = None
    #: Per-thread outstanding memory accesses (ME loads/stores split).
    mem_pending: dict[int, int] | None = None
    mem_done_count = 0
    store_committed_count = 0
    lsq_index: int | None = None
    #: Set when every owning thread has been squashed away.
    dead = False
    #: Set when this merged ME load's LVIP verification failed.
    lvip_mispredicted = False

    def __init__(
        self,
        seq: int,
        pc: int,
        inst: Instruction,
        itid: int,
        execs: dict[int, Executed],
        fetch_mode: FetchMode,
    ) -> None:
        self.seq = seq
        self.pc = pc
        self.inst = inst
        self.itid = itid
        self.execs = execs
        self.fetch_mode = fetch_mode
        #: Number of threads the instruction was fetched for (before splits).
        self.fetch_merged_width = POPCOUNT[itid]
        #: Physical source registers, aligned with ``inst.srcs``.
        self.psrcs: list[int] = []
        #: Rename undo log: tid -> previous physical mapping of inst.dst.
        self.prev_map: dict[int, int] = {}
        self.halt = inst.op is Opcode.HALT

    # --------------------------------------------------------------- helpers
    @property
    def num_threads(self) -> int:
        return POPCOUNT[self.itid]

    def threads(self) -> tuple[int, ...]:
        return THREADS_OF[self.itid]

    def leader(self) -> int:
        return min(self.execs)

    def any_exec(self) -> Executed:
        """An arbitrary owning thread's oracle record (they agree on the
        static instruction; values may differ per thread)."""
        return self.execs[min(self.execs)]

    def dest_phys_for(self, tid: int) -> int | None:
        """Physical destination register for thread *tid*."""
        if self.pdst_by_tid is not None:
            return self.pdst_by_tid.get(tid, self.pdst)
        return self.pdst

    def result_for(self, tid: int):
        """The architectural result value for thread *tid*."""
        return self.execs[tid].result

    def clone_for(self, eid: int) -> "DynInst":
        """A split piece of this fetched instruction owning only *eid*.

        The clone keeps the fetch sequence number and mode; per-thread
        uniqueness is preserved because split pieces partition the ITID.
        """
        execs = {t: self.execs[t] for t in THREADS_OF[eid]}
        piece = DynInst(self.seq, self.pc, self.inst, eid, execs, self.fetch_mode)
        piece.fetch_merged_width = self.fetch_merged_width
        piece.pred_taken = self.pred_taken
        piece.pred_target = self.pred_target
        piece.mispredicted = self.mispredicted
        return piece

    def drop_thread(self, tid: int) -> None:
        """Remove *tid* from this instruction's ownership (squash path)."""
        self.itid &= ~(1 << tid)
        self.execs.pop(tid, None)
        if self.pdst_by_tid is not None:
            self.pdst_by_tid.pop(tid, None)
        if self.mem_pending is not None:
            self.mem_pending.pop(tid, None)
            if not self.mem_pending and self.itid:
                # The unit-owning thread left but others remain (merged MT
                # load): restart the access under the new leader.
                new_leader = (self.itid & -self.itid).bit_length() - 1
                self.mem_pending[new_leader] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DynInst #{self.seq} pc={self.pc} itid={self.itid:04b} "
            f"{self.inst.op.value} {self.state.value}>"
        )
