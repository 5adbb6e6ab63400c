"""MMT feature configurations (paper Table 5) and workload typing."""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace


class WorkloadType(enum.Enum):
    """The paper's SPMD workload categories (§3.1).

    The paper evaluates multi-threaded and multi-execution; message-passing
    is named but deferred to future work (§7) — this repository implements
    it as an extension (separate address spaces plus a shared message
    network driven by the SEND/TRECV instructions).
    """

    MULTI_THREADED = "MT"  # threads share memory, differ in stack pointer
    MULTI_EXECUTION = "ME"  # separate processes, identical initial registers
    MESSAGE_PASSING = "MP"  # separate processes + explicit message channels


@dataclass(frozen=True)
class MMTConfig:
    """Which MMT mechanisms are active (paper Table 5).

    * ``shared_fetch`` — merged fetch with ITIDs and the sync FSM (§4.1).
    * ``shared_execute`` — RST-driven instruction merging at the split stage
      (§4.2); when off, fetch-identical instructions always split.
    * ``register_merging`` — commit-time value comparison (§4.2.7).
    * ``limit_identical`` — the Limit configuration: run N instances of the
      same context with identical inputs (an upper bound on performance).
    """

    name: str = "MMT-FXR"
    shared_fetch: bool = True
    shared_execute: bool = True
    register_merging: bool = True
    limit_identical: bool = False
    fhb_size: int = 32
    lvip_entries: int = 4096
    merge_read_ports: int = 2
    max_catchup_branches: int = 64
    #: Hold a freshly remerged group's fetch for up to ``remerge_drain``
    #: cycles (0 = off) while its members' in-flight instructions commit,
    #: so §4.2.7 register merging sees valid mappings and quiescent writers
    #: and can repair the registers the divergence episode marked unshared.
    #: Measurement (``repro abl-drain``) shows the serialization usually
    #: costs more than the extra repairs recover, so the default is off;
    #: the knob remains for the ablation study.
    remerge_drain: int = 0
    #: Honour software HINT instructions as explicit remerge rendezvous
    #: points (the Thread Fusion [36] approach the paper's related-work
    #: section says MMT could combine with).  Off = pure-hardware MMT.
    use_hints: bool = False
    #: Longest a group parks at a HINT waiting for a partner (cycles).
    hint_window: int = 16

    @classmethod
    def base(cls) -> "MMTConfig":
        """Traditional SMT: no MMT mechanisms."""
        return cls(
            name="Base",
            shared_fetch=False,
            shared_execute=False,
            register_merging=False,
        )

    @classmethod
    def mmt_f(cls) -> "MMTConfig":
        """MMT with shared fetch only."""
        return cls(name="MMT-F", shared_execute=False, register_merging=False)

    @classmethod
    def mmt_fx(cls) -> "MMTConfig":
        """MMT with shared fetch and shared execution."""
        return cls(name="MMT-FX", register_merging=False)

    @classmethod
    def mmt_fxr(cls) -> "MMTConfig":
        """Full MMT: shared fetch, shared execution, register merging."""
        return cls(name="MMT-FXR")

    @classmethod
    def mmt_fxr_hints(cls) -> "MMTConfig":
        """Full MMT plus software remerge hints (Thread Fusion combined)."""
        return cls(name="MMT-FXR+H", use_hints=True)

    @classmethod
    def limit(cls) -> "MMTConfig":
        """MMT-FXR running identical instances: the performance upper bound."""
        return cls(name="Limit", limit_identical=True)

    @classmethod
    def all_paper_configs(cls) -> list["MMTConfig"]:
        """The five configurations of Table 5, in paper order."""
        return [cls.base(), cls.mmt_f(), cls.mmt_fx(), cls.mmt_fxr(), cls.limit()]

    def with_fhb_size(self, size: int) -> "MMTConfig":
        """Copy of this config with a different FHB size (Figure 7 sweeps)."""
        return replace(self, fhb_size=size)

    @staticmethod
    def table5_rows() -> list[tuple[str, str]]:
        """The Name/Description rows of the paper's Table 5."""
        return [
            ("Base", "Traditional SMT"),
            ("MMT-F", "MMT, shared fetch only"),
            ("MMT-FX", "MMT, shared fetch and execute"),
            ("MMT-FXR", "MMT-FX with register merging"),
            ("Limit", "MMT-FXR running instances with identical inputs"),
        ]
