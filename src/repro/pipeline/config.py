"""Machine configuration (paper Table 4)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.mem.hierarchy import MemoryConfig


@dataclass(frozen=True)
class MachineConfig:
    """Core geometry and widths.

    Defaults reproduce the paper's Table 4: an aggressive 8-wide SMT with a
    256-entry ROB, 64-entry LSQ, 6 ALUs + 3 FPUs, a 2-level predictor with
    a 1024-entry PHT and history length 10, 2048-entry BTB, 16-entry RAS,
    and a trace cache.  The physical register file is sized so four contexts
    can hold their architectural state with a full window in flight.
    """

    num_threads: int = 4
    fetch_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    rob_size: int = 256
    iq_size: int = 64
    lsq_size: int = 64
    num_alu: int = 6
    num_fpu: int = 3
    ldst_ports: int = 4
    phys_regs: int = 512
    fetch_groups_per_cycle: int = 2
    decode_buffer_size: int = 32
    # Extra front-end redirect cycles on a branch mispredict, on top of the
    # fetch-to-resolve bubble the pipeline models directly.
    mispredict_penalty: int = 2
    # Fetch-stall cycles charged to a thread recovering from an LVIP
    # misprediction (pipeline flush + refetch redirect).
    lvip_flush_penalty: int = 3
    bpred_pht_entries: int = 1024
    bpred_history_length: int = 10
    btb_entries: int = 2048
    ras_depth: int = 16
    trace_cache_enabled: bool = True
    trace_cache_blocks: int = 3
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    # Safety net for runaway simulations (deadlock would otherwise hang).
    max_cycles: int = 5_000_000
    # Cycles each context waits before its first fetch, one per context
    # (empty: every context starts at once).  Models scheduling skew:
    # what §4.4's gang-scheduling assumption is worth.
    start_delays: tuple[int, ...] = ()

    def with_threads(self, n: int) -> "MachineConfig":
        """Copy with a different hardware thread count."""
        return replace(self, num_threads=n)

    def with_fetch_width(self, width: int) -> "MachineConfig":
        """Copy with a different fetch width (Figure 7(d) sweep)."""
        return replace(self, fetch_width=width)

    def with_ldst_ports(self, ports: int, scale_mshrs: bool = True) -> "MachineConfig":
        """Copy with a different load/store port count (Figure 7(b) sweep).

        The paper scales the MSHR count with the port count; we scale at 4
        MSHRs per port by default.
        """
        memory = self.memory
        if scale_mshrs:
            memory = replace(memory, mshr_entries=max(4, 4 * ports))
        return replace(self, ldst_ports=ports, memory=memory)

    def table4_rows(self) -> list[tuple[str, str]]:
        """This configuration rendered as the paper's Table 4 rows."""
        rows = [
            ("Threads", str(self.num_threads)),
            ("Issue/Commit Width", f"{self.issue_width}/{self.commit_width}"),
            ("LSQ Size", str(self.lsq_size)),
            ("ROB Size", str(self.rob_size)),
            ("ALU/FPU units", f"{self.num_alu}/{self.num_fpu}"),
            (
                "Branch Predictor",
                f"2-level, {self.bpred_pht_entries} Entry, "
                f"History Length {self.bpred_history_length}",
            ),
            ("BTB/RAS Size", f"{self.btb_entries}/{self.ras_depth}"),
            ("Trace Cache", "enabled" if self.trace_cache_enabled else "disabled"),
        ]
        rows.extend(self.memory.table4_rows())
        return rows
