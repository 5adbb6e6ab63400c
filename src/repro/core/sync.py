"""Fetch synchronization: MERGE / DETECT / CATCHUP (paper §4.1, Figure 3).

Threads are organised into *groups*.  A group of two or more threads fetches
merged (MERGE mode): one fetch, one instruction-window entry, ITID = group
mask.  When a merged control instruction resolves differently for different
member threads, the group splits (DETECT mode).  While apart, every taken
branch a group fetches records its target PC in the group leader's Fetch
History Buffer and CAM-searches the other groups' FHBs; a hit means this
group has reached a point another group passed earlier — it is *behind* —
and the pair moves to CATCHUP: the behind group gets top fetch priority and
the ahead group is demoted.  Remerge completes when the two groups' fetch
PCs become equal; a CATCHUP branch target that misses the ahead FHB is the
false-positive exit back to DETECT.

The controller also gathers the statistics behind Figures 5(d)/7(c) (fetch
mode breakdown) and the §6.3 claim that 90% of remerges complete within 512
fetched branches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.fhb import FetchHistoryBuffer
from repro.core.itid import FIRST_THREAD, POPCOUNT, THREADS_OF
from repro.obs.events import EventKind
from repro.obs.observer import NULL_OBS


class FetchMode(enum.Enum):
    """Instruction-fetch mode of a thread group."""

    MERGE = "merge"
    DETECT = "detect"
    CATCHUP = "catchup"


class ThreadGroup:
    """A set of hardware threads fetching in lockstep at one PC."""

    __slots__ = (
        "gid",
        "mask",
        "branches_since_split",
        "created_cycle",
        "drain_pending",
    )

    def __init__(self, gid: int, mask: int, created_cycle: int = 0) -> None:
        self.gid = gid
        self.mask = mask
        self.branches_since_split = 0
        self.created_cycle = created_cycle
        #: Set on a fresh remerge: the group holds fetch until its members'
        #: in-flight instructions commit, so commit-time register merging
        #: (§4.2.7) sees valid mappings and quiescent writers and can repair
        #: the registers the divergence episode marked unshared.
        self.drain_pending = False

    @property
    def leader(self) -> int:
        """Lowest member thread id; owns the group's FHB."""
        return FIRST_THREAD[self.mask]

    @property
    def size(self) -> int:
        return POPCOUNT[self.mask]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Group {self.gid} mask={self.mask:04b}>"


@dataclass
class SyncStats:
    """Counters for the synchronization mechanism."""

    divergences: int = 0
    remerges: int = 0
    catchup_entries: int = 0
    catchup_false_positives: int = 0
    catchup_timeouts: int = 0
    fhb_hits: int = 0
    remerge_branch_distances: list[int] = field(default_factory=list)

    def remerge_within(self, branches: int) -> float:
        """Fraction of remerges found within *branches* fetched branches."""
        if not self.remerge_branch_distances:
            return 0.0
        good = sum(1 for d in self.remerge_branch_distances if d <= branches)
        return good / len(self.remerge_branch_distances)


class SyncController:
    """Manages thread groups, FHBs, and the fetch-mode state machine."""

    def __init__(
        self,
        num_threads: int,
        fhb_size: int = 32,
        enabled: bool = True,
        max_catchup_branches: int = 64,
    ) -> None:
        self.num_threads = num_threads
        self.enabled = enabled
        self.max_catchup_branches = max_catchup_branches
        # Rebound by SMTCore; FSM events use ``obs.now`` on the paths that
        # carry no cycle argument (taken-branch bookkeeping).
        self.obs = NULL_OBS
        self._next_gid = 0
        self.fhbs = [FetchHistoryBuffer(fhb_size) for _ in range(num_threads)]
        self.stats = SyncStats()
        # behind gid -> ahead gid, plus catchup branch budget per behind gid.
        self._catchup_target: dict[int, int] = {}
        self._catchup_branches: dict[int, int] = {}
        self.groups: list[ThreadGroup] = []
        self._group_of: list[ThreadGroup | None] = [None] * num_threads
        initial_mask = (1 << num_threads) - 1
        if enabled:
            self._add_group(initial_mask)
        else:
            for t in range(num_threads):
                self._add_group(1 << t)

    # ------------------------------------------------------------- topology
    def _add_group(self, mask: int, cycle: int = 0) -> ThreadGroup:
        group = ThreadGroup(self._next_gid, mask, cycle)
        self._next_gid += 1
        self.groups.append(group)
        for t in THREADS_OF[mask]:
            self._group_of[t] = group
        return group

    def _remove_group(self, group: ThreadGroup) -> None:
        self.groups.remove(group)
        self._drop_catchup(group)

    def _drop_catchup(self, group: ThreadGroup) -> None:
        self._catchup_target.pop(group.gid, None)
        self._catchup_branches.pop(group.gid, None)
        stale = [b for b, a in self._catchup_target.items() if a == group.gid]
        for behind in stale:
            del self._catchup_target[behind]
            self._catchup_branches.pop(behind, None)

    def group_of(self, tid: int) -> ThreadGroup:
        """Current group of thread *tid*."""
        group = self._group_of[tid]
        if group is None:
            raise ValueError(f"thread {tid} is not active")
        return group

    def active_groups(self) -> list[ThreadGroup]:
        """All live groups."""
        return list(self.groups)

    # ----------------------------------------------------------------- modes
    def mode_of(self, group: ThreadGroup) -> FetchMode:
        """Fetch mode of *group* for statistics and FHB gating."""
        if POPCOUNT[group.mask] >= 2:
            if len(self.groups) == 1:
                return FetchMode.MERGE
            # Partially merged machine: the group fetches merged for its
            # members but still participates in detection w.r.t. others.
            if group.gid in self._catchup_target:
                return FetchMode.CATCHUP
            return FetchMode.MERGE
        if group.gid in self._catchup_target:
            return FetchMode.CATCHUP
        return FetchMode.DETECT

    def is_fully_merged(self) -> bool:
        """True when every active thread is in one group."""
        return len(self.groups) <= 1

    def catchup_ahead_gids(self) -> set[int]:
        """gids of groups currently acting as CATCHUP 'ahead' targets."""
        return set(self._catchup_target.values())

    def behinds_of(self, ahead_gid: int) -> list[int]:
        """gids of groups currently chasing *ahead_gid*."""
        return [b for b, a in self._catchup_target.items() if a == ahead_gid]

    # ------------------------------------------------------------ divergence
    def on_divergence(
        self, group: ThreadGroup, masks_by_pc: list[int], cycle: int = 0
    ) -> list[ThreadGroup]:
        """Split *group*: members disagreed on the next PC.

        *masks_by_pc* are the member masks per distinct next PC; their union
        must equal the group mask.
        """
        if len(masks_by_pc) < 2:
            raise ValueError("divergence requires at least two distinct PCs")
        total = 0
        for mask in masks_by_pc:
            total |= mask
        if total != group.mask:
            raise ValueError("divergence masks must partition the group")
        self.stats.divergences += 1
        self._remove_group(group)
        # A fresh episode begins: stale history from before the divergence
        # would otherwise trigger catchup pairings against the *shared*
        # pre-divergence path (wrong phase, wrong direction).
        for tid in THREADS_OF[group.mask]:
            self.fhbs[tid].clear()
        subgroups = [self._add_group(mask, cycle) for mask in masks_by_pc]
        if self.obs.tracing:
            self.obs.emit(
                EventKind.SPLIT,
                cycle,
                tid=group.leader,
                gid=group.gid,
                mask=group.mask,
                into=[sub.mask for sub in subgroups],
            )
        return subgroups

    # --------------------------------------------------------- taken branches
    def on_taken_branch(self, group: ThreadGroup, target_pc: int) -> None:
        """A group fetched a taken branch while the machine is not fully
        merged: record the target, search the other groups, update the FSM."""
        if not self.enabled or self.is_fully_merged():
            return
        group.branches_since_split += 1
        self.fhbs[group.leader].record(target_pc)

        ahead_gid = self._catchup_target.get(group.gid)
        if ahead_gid is not None:
            # CATCHUP: keep checking the ahead group's history; a miss is the
            # false-positive exit back to DETECT.
            ahead = self._group_by_gid(ahead_gid)
            if ahead is None or not self.fhbs[ahead.leader].contains(target_pc):
                del self._catchup_target[group.gid]
                self._catchup_branches.pop(group.gid, None)
                self.stats.catchup_false_positives += 1
                if self.obs.tracing:
                    self.obs.emit(
                        EventKind.MODE,
                        self.obs.now,
                        tid=group.leader,
                        pc=target_pc,
                        gid=group.gid,
                        transition="catchup_exit",
                        why="false_positive",
                    )
            else:
                budget = self._catchup_branches.get(group.gid, 0) - 1
                self._catchup_branches[group.gid] = budget
                if budget <= 0:
                    del self._catchup_target[group.gid]
                    del self._catchup_branches[group.gid]
                    self.stats.catchup_timeouts += 1
                    if self.obs.tracing:
                        self.obs.emit(
                            EventKind.MODE,
                            self.obs.now,
                            tid=group.leader,
                            pc=target_pc,
                            gid=group.gid,
                            transition="catchup_exit",
                            why="timeout",
                        )
            return

        # DETECT: search every other group's FHB for our target.
        for other in self.groups:
            if other is group:
                continue
            if self.fhbs[other.leader].contains(target_pc):
                self.stats.fhb_hits += 1
                # Our target is in their history: they passed this point
                # already, so we are behind them.
                if other.gid not in self._catchup_target:
                    self._catchup_target[group.gid] = other.gid
                    self._catchup_branches[group.gid] = self.max_catchup_branches
                    self.stats.catchup_entries += 1
                    if self.obs.tracing:
                        self.obs.emit(
                            EventKind.MODE,
                            self.obs.now,
                            tid=group.leader,
                            pc=target_pc,
                            gid=group.gid,
                            transition="catchup_enter",
                            ahead_gid=other.gid,
                        )
                break

    def _group_by_gid(self, gid: int) -> ThreadGroup | None:
        for group in self.groups:
            if group.gid == gid:
                return group
        return None

    # ---------------------------------------------------------------- merges
    def check_merges(self, fetch_pcs: dict[int, int], cycle: int = 0) -> list[
        tuple[ThreadGroup, ThreadGroup, ThreadGroup]
    ]:
        """Merge groups whose fetch PCs are equal this cycle.

        *fetch_pcs* maps gid -> next fetch PC for groups able to fetch.
        Returns ``(survivor, absorbed_a, absorbed_b)`` events (survivor is
        the freshly created union group).
        """
        if not self.enabled:
            return []
        events = []
        merged = True
        while merged:
            merged = False
            by_pc: dict[int, ThreadGroup] = {}
            for group in list(self.groups):
                pc = fetch_pcs.get(group.gid)
                if pc is None:
                    continue
                other = by_pc.get(pc)
                if other is None:
                    by_pc[pc] = group
                    continue
                survivor = self._merge_pair(other, group, cycle)
                fetch_pcs[survivor.gid] = pc
                events.append((survivor, other, group))
                merged = True
                break
        return events

    def _merge_pair(
        self, a: ThreadGroup, b: ThreadGroup, cycle: int
    ) -> ThreadGroup:
        distance = max(a.branches_since_split, b.branches_since_split)
        self.stats.remerges += 1
        self.stats.remerge_branch_distances.append(distance)
        self._remove_group(a)
        self._remove_group(b)
        survivor = self._add_group(a.mask | b.mask, cycle)
        survivor.drain_pending = True
        if self.obs.tracing:
            self.obs.emit(
                EventKind.MERGE,
                cycle,
                tid=survivor.leader,
                gid=survivor.gid,
                mask=survivor.mask,
                from_gids=[a.gid, b.gid],
                branch_distance=distance,
            )
        # The joint path starts fresh: stale targets in any member's FHB
        # would otherwise trigger spurious catchups after the next split.
        for tid in THREADS_OF[survivor.mask]:
            self.fhbs[tid].clear()
        return survivor

    def isolate(self, tid: int) -> ThreadGroup:
        """Pull *tid* out of its group into a fresh singleton (squash path).

        The LVIP rollback rewinds one thread's fetch; its group (if any)
        continues without it and the thread resynchronizes later through
        the normal PC-equality / FHB machinery.
        """
        group = self._group_of[tid]
        if group is None:
            # The thread had fetched HALT (left its group) but a squash is
            # rewinding it: it needs a group again to resume fetching.
            return self._add_group(1 << tid)
        if group.size == 1:
            return group
        remaining = group.mask & ~(1 << tid)
        self._remove_group(group)
        if remaining:
            self._add_group(remaining)
        return self._add_group(1 << tid)

    # ----------------------------------------------------------------- halts
    def on_halt(self, tid: int) -> None:
        """Remove a halted thread from its group."""
        group = self._group_of[tid]
        if group is None:
            return
        self._group_of[tid] = None
        remaining = group.mask & ~(1 << tid)
        self._remove_group(group)
        if remaining:
            self._add_group(remaining)

    # -------------------------------------------------------------- priority
    def fetch_order(self, icount: dict[int, int]) -> list[ThreadGroup]:
        """Groups in fetch-priority order.

        CATCHUP 'behind' groups come first (the paper raises their fetch
        priority), ordinary groups follow ICOUNT order (fewest in-flight
        instructions first), and CATCHUP 'ahead' groups come last.
        """
        ahead = self.catchup_ahead_gids()

        def key(group: ThreadGroup) -> tuple:
            if group.gid in self._catchup_target:
                rank = 0
            elif group.gid in ahead:
                rank = 2
            else:
                rank = 1
            return (rank, icount.get(group.gid, 0), group.gid)

        return sorted(self.groups, key=key)
