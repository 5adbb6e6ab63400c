"""Tables 2 and 3: the split-decision logic and the MMT hardware budget."""

from conftest import emit, regenerate

from repro.power.budget import (
    hardware_budget,
    storage_overhead_fraction,
    total_storage_bits,
)

TABLE2 = """\
Stage    Inst    App   Type  Operation
-------  ------  ----  ----  -------------
Decode   ALU/Ld  Both  F-id  SPLIT
         Branch
         ALU/Br  Both  X-id  MERGE
         Load    MT    X-id  MERGE
         Load    ME    X-id  Check LVIP
Ld/St Q  Store   ME    Both  SPLIT
         Ld/St   MT    Both  No Change
         Load    ME    Both  SPLIT; Verify LVIP Pred"""


def test_table2_split_logic(benchmark):
    """Table 2 is pure logic; verify the implementation honours it."""

    def check():
        from repro.core.config import WorkloadType
        from repro.core.rst import RegisterSharingTable
        from repro.core.splitter import split_itid
        from repro.pipeline.lsq import LoadStoreQueue

        rst = RegisterSharingTable.for_multi_execution()
        # X-id ALU stays merged; F-id (non-identical inputs) splits.
        assert split_itid(0b11, (1,), rst).itids == [0b11]
        rst.set_pair(1, 0, 1, False)
        assert len(split_itid(0b11, (1,), rst).itids) == 2
        # LSQ: ME stores split per context, MT single access.
        from repro.isa.instruction import Instruction
        from repro.isa.opcodes import Opcode
        from repro.core.sync import FetchMode
        from repro.func.executor import Executed
        from repro.pipeline.dyninst import DynInst

        store = Instruction(Opcode.SW, rs1=9, rs2=1, imm=0)
        execs = {
            t: Executed(0, store, (0, 0), None, 0x100, 1, None, 1, t)
            for t in (0, 1)
        }
        di = DynInst(1, 0, store, 0b11, execs, FetchMode.MERGE)
        assert (
            LoadStoreQueue.store_accesses_needed(di, WorkloadType.MULTI_EXECUTION)
            == 2
        )
        assert (
            LoadStoreQueue.store_accesses_needed(di, WorkloadType.MULTI_THREADED)
            == 1
        )
        return True

    assert benchmark.pedantic(check, rounds=1, iterations=1)
    emit("Table 2 — Logic for splitting instructions", TABLE2)


def test_table3_hardware_budget(benchmark):
    regenerate(benchmark, "table3")
    budget = hardware_budget()
    total = total_storage_bits(budget)
    overhead = storage_overhead_fraction(budget)
    emit(
        "Table 3 — Totals",
        f"total MMT storage: {total} bits ({total / 8 / 1024:.1f} KiB)\n"
        f"fraction of on-chip cache storage: {overhead * 100:.2f}% "
        f"(paper: overhead power < 2% of processor power)",
    )
    assert overhead < 0.02
