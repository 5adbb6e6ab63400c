"""Regenerators for every table and figure of the paper's evaluation, and
for the ablations and extensions beyond it.

:data:`FIGURES` declares every figure, table and sweep once, as one
``repro`` target: its ``list`` line, its title, its simulated point set,
its rows and its layout (rendered by ``repro.harness.report``).  A figure's
rows are a function of the results its campaigns returned and nothing
else: :func:`run_figures` runs a set of targets' points as one validated
campaign (and Figures 1 and 2's sharing profiles as another) and
computes each target's rows, plain lists of dicts that callers — the
CLI, the examples, tests — print, assert or plot.  :func:`paper_claims`
checks the paper's shape claims on the rows of all of them.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

from repro.core.config import MMTConfig
from repro.core.sync import FetchMode
from repro.harness import experiment
from repro.harness.campaign import CampaignResult, run_campaign
from repro.harness.experiment import (
    CampaignJob,
    default_apps,
    geomean,
    workload_token,
)
from repro.harness.report import format_pairs, format_stacked_bars, format_table
from repro.pipeline.config import MachineConfig
from repro.power.budget import (
    hardware_budget,
    storage_overhead_fraction,
    total_storage_bits,
)
from repro.profiling.divergence import FIG2_BUCKETS, divergence_histogram
from repro.profiling.sharing import analyze_job
from repro.profiling.tracing import capture_job_traces
from repro.workloads.profiles import get_profile

#: Thread count used for the motivation study (the paper profiles pairs).
PROFILE_CONTEXTS = 2


# ------------------------------------------------------------ Figures 1/2
@dataclass(frozen=True)
class SharingPoint:
    """One profiling point of the Figure 1/2 motivation study; *token*
    keys it by the trace it replays, as for a :class:`CampaignJob`."""

    app: str
    scale: float = 1.0
    token: str = field(init=False, default="")

    def __post_init__(self) -> None:
        object.__setattr__(self, "token", workload_token(self.app))

    def label(self) -> str:
        return f"{self.app}/sharing"


def sharing_row(point: SharingPoint, seed: int = 0) -> dict:
    """Campaign runner for one Figure 1 row (functional trace profiling).

    Registry workloads (engine-generated or ``trace:PATH`` replays) are
    accepted alongside paper apps; they have no paper reference columns,
    so those report as None.
    """
    del seed  # trace capture is deterministic per application
    from repro.harness.experiment import build_point

    try:
        profile = get_profile(point.app)
    except KeyError:
        profile = None  # registry workload: no paper reference numbers
    build = build_point(point.app, PROFILE_CONTEXTS, scale=point.scale)
    traces = capture_job_traces(build.job())
    sharing = analyze_job(traces)
    exec_frac = sharing.execute_identical_fraction
    fetch_frac = sharing.fetch_identical_fraction
    return {
        "app": point.app,
        "execute_identical": exec_frac,
        "fetch_identical_only": max(0.0, fetch_frac - exec_frac),
        "not_identical": max(0.0, 1.0 - fetch_frac),
        "paper_execute_identical": profile.fig1_exec if profile else None,
        "paper_fetch_identical": profile.fig1_fetch if profile else None,
        "_gaps": sharing.gaps,
    }


# ------------------------------------------------- simulated point sets
class Series(NamedTuple):
    """One simulated configuration of a figure, run once per application.

    *key* is what the series fills in the figure's rows: a column (a
    configuration name, an FHB size) or a swept machine parameter.
    ``machine=None`` is the default machine for *threads*.
    """

    key: object
    config: MMTConfig
    threads: int
    machine: MachineConfig | None = None


def _paper_series(threads: int, machine: MachineConfig | None = None) -> list[Series]:
    """The five Table 5 configurations, Base first (Fig 5(a)/(c))."""
    return [
        Series(config.name, config, threads, machine)
        for config in MMTConfig.all_paper_configs()
    ]


def _fxr_series(threads: int) -> list[Series]:
    """MMT-FXR alone (Fig 5(b)/(d))."""
    return [Series("MMT-FXR", MMTConfig.mmt_fxr(), threads)]


def _energy_series() -> list[Series]:
    """SMT (Base) and MMT (MMT-FXR) at two and four threads, SMT-2T —
    the normaliser — first (Fig 6)."""
    return [
        Series(f"{label}-{threads}T", config, threads)
        for threads in (2, 4)
        for label, config in (("SMT", MMTConfig.base()),
                              ("MMT", MMTConfig.mmt_fxr()))
    ]


def _over_base(variants) -> list[Series]:
    """Each variant series after Base on the variant's machine and thread
    count (Fig 7(b)/(d), the ablations, message passing)."""
    return [series for variant in variants
            for series in (variant._replace(config=MMTConfig.base()), variant)]


def _fhb_series(sizes, threads: int, base: bool) -> list[Series]:
    """MMT-FXR at each FHB size, after Base when *base* (Fig 7(a)/(c))."""
    series = [Series("Base", MMTConfig.base(), threads)] if base else []
    return series + [
        Series(size, MMTConfig.mmt_fxr().with_fhb_size(size), threads)
        for size in sizes
    ]


def _sweep_series(values, threads: int, vary) -> list[Series]:
    """Base then MMT-FXR on the machine ``vary(machine, value)`` for each
    swept *value* (Fig 7(b)/(d))."""
    return _over_base(
        Series(value, MMTConfig.mmt_fxr(), threads,
               vary(MachineConfig(num_threads=threads), value))
        for value in values
    )


def _port_series(ports, threads: int) -> list[Series]:
    return _sweep_series(ports, threads, MachineConfig.with_ldst_ports)


def _width_series(widths, threads: int) -> list[Series]:
    return _sweep_series(widths, threads, MachineConfig.with_fetch_width)


FHB_SIZES = (8, 16, 32, 64, 128)
LDST_PORT_COUNTS = (2, 4, 6, 8, 12)
FETCH_WIDTHS = (4, 8, 16, 32)


def _fxr(**knobs) -> MMTConfig:
    """MMT-FXR with *knobs* changed (an ablation variant)."""
    return replace(MMTConfig.mmt_fxr(), **knobs)


#: The ablations' applications and swept values (two threads).
ABLATION_APPS = ("ammp", "equake", "vpr", "water-sp")
REMERGE_DRAINS = (("off", 0), ("capped-12", 12), ("full", 10_000))
TRACE_CACHE = (("trace-cache", True), ("plain-L1I", False))
CATCHUP_BUDGETS = (8, 64, 512)
MERGE_READ_PORTS = (1, 2, 4, 8)
SKEW_APPS = ("ammp", "water-sp")
SKEW_CYCLES = (0, 50, 150, 400)
#: The extensions' applications: the registry's message-passing patterns
#: at two and four ranks, and the flag-divergence apps software hints
#: target.
MP_APPS = ("mp-ring", "mp-pairs")
MP_RANKS = (2, 4)
HINT_APPS = ("vpr", "twolf", "vortex", "water-ns")


def _skew_series() -> list[Series]:
    """Base, then MMT-FXR with the second context's start delayed by each
    skew; no skew is the default machine (§4.4)."""
    return [Series("Base", MMTConfig.base(), 2)] + [
        Series(delay, MMTConfig.mmt_fxr(), 2,
               MachineConfig(num_threads=2, start_delays=(0, delay)))
        for delay in SKEW_CYCLES
    ]


def _hints_series() -> list[Series]:
    """Base and MMT-FXR on the plain program, and MMT-FXR+H, which runs
    the hinted one (Thread Fusion)."""
    return [Series(config.name, config, 2)
            for config in (MMTConfig.base(), MMTConfig.mmt_fxr(),
                           MMTConfig.mmt_fxr_hints())]


# --------------------------------------------------- what the rows read
def results_of(*campaigns: CampaignResult) -> dict:
    """The payload of every successful outcome of *campaigns*, by job:
    the results :meth:`Figure.compute` reads."""
    return {outcome.job: outcome.payload
            for campaign in campaigns
            for outcome in campaign.outcomes if outcome.ok}


class Results:
    """A figure's view of its campaigns' results at one *scale*.

    *results* maps jobs to payloads (:func:`results_of`).  A simulated
    point is looked up by its job up to the engine and the workload seed,
    which are the campaign's to choose, so rows read whichever engine and
    seed ran; results that hold one point twice under different ones
    raise ``ValueError``.  A point the results lack raises ``KeyError``:
    nothing is simulated here.
    """

    def __init__(self, results: Mapping, scale: float) -> None:
        self.scale = scale
        self._runs: dict[CampaignJob, object] = {}
        self._profiles: dict[SharingPoint, dict] = {}
        for job, payload in results.items():
            if isinstance(job, SharingPoint):
                self._profiles[job] = payload
                continue
            point = replace(job, engine="reference", seed=None)
            if self._runs.setdefault(point, payload) is not payload:
                raise ValueError(
                    f"the results hold {job.label()} under two engines or "
                    "seeds; compute a figure over one of them"
                )

    def run(self, series: Series, app: str):
        """The run of *series* on *app*."""
        return self._lookup(self._runs, CampaignJob(
            app, series.config, series.threads, machine=series.machine,
            scale=self.scale,
        ))

    def profile(self, app: str) -> dict:
        """The Figure 1 sharing row of *app*."""
        return self._lookup(self._profiles, SharingPoint(app, self.scale))

    @staticmethod
    def _lookup(results: dict, point):
        try:
            return results[point]
        except KeyError:
            raise KeyError(f"no result for {point.label()} at scale "
                           f"{point.scale}: no campaign returned it") from None


# ------------------------------------------------------- rows from runs
def _sharing_rows(results: Results, series, apps) -> list[dict]:
    """Instruction-sharing breakdown per application, then the average
    (Fig 1)."""
    rows = [dict(results.profile(app)) for app in apps]
    rows.append({
        "app": "average",
        "execute_identical": sum(r["execute_identical"] for r in rows) / len(rows),
        "fetch_identical_only": sum(r["fetch_identical_only"] for r in rows)
        / len(rows),
        "not_identical": sum(r["not_identical"] for r in rows) / len(rows),
        "paper_execute_identical": 0.35,
        "paper_fetch_identical": 0.88,
        "_gaps": [],
    })
    return rows


def _divergence_rows(results: Results, series, apps) -> list[dict]:
    """Divergent-path length-difference histogram per application
    (Fig 2)."""
    rows = []
    for app in apps:
        histogram = divergence_histogram(results.profile(app)["_gaps"])
        rows.append({"app": app, **{f"<={b}": v for b, v in histogram.items()}})
    return rows


def _speedup_rows(results: Results, series, apps) -> list[dict]:
    """Per-application speedup of each series over the first, Base, at
    the same thread count; then the geomean row (Fig 5(a)/(c), 7(a))."""
    base, *others = series
    rows = []
    for app in apps:
        cycles = results.run(base, app).cycles
        rows.append({"app": app, **{
            s.key: cycles / results.run(s, app).cycles for s in others
        }})
    rows.append({"app": "geomean", **{
        s.key: geomean(row[s.key] for row in rows) for s in others
    }})
    return rows


def _variant_rows(column: str, results: Results, series, apps) -> list[dict]:
    """Speedup of each variant over its Base run, per application and as
    the geomean, one row per variant; *series* alternates Base and the
    variant (:func:`_over_base`; the ablations)."""
    rows = []
    for base, variant in zip(series[::2], series[1::2]):
        speedups = {app: results.run(base, app).cycles
                    / results.run(variant, app).cycles for app in apps}
        rows.append({column: variant.key, **speedups,
                     "geomean": geomean(speedups.values())})
    return rows


def _sweep_rows(column: str, results: Results, series, apps) -> list[dict]:
    """Geomean speedup of MMT-FXR over Base per swept value (Fig 7(b)/(d))."""
    return [{column: row[column], "geomean_speedup": row["geomean"]}
            for row in _variant_rows(column, results, series, apps)]


def _exec_identical(result) -> float:
    """Fraction of one run's instructions executed merged, register
    merging included."""
    identified = result.stats.identified_breakdown()
    return (identified["exec_identical"]
            + identified["exec_identical_regmerge"])


def _skew_rows(results: Results, series, apps) -> list[dict]:
    """Per skew, each application's MMT-FXR speedup over Base and merged
    fraction (§4.4 gang scheduling)."""
    base, *skewed = series
    rows = []
    for s in skewed:
        row = {"skew_cycles": s.key}
        for app in apps:
            result = results.run(s, app)
            row[f"{app} speedup"] = results.run(base, app).cycles / result.cycles
            row[f"{app} exec-id"] = _exec_identical(result)
        rows.append(row)
    return rows


def _message_passing_rows(results: Results, series, apps) -> list[dict]:
    """MMT-FXR speedup over Base and merged fraction of each pattern at
    each rank count (§7's message-passing class)."""
    return [
        {"pattern": f"{app.removeprefix('mp-')}-{fxr.key}rank",
         "speedup": results.run(base, app).cycles / results.run(fxr, app).cycles,
         "exec_identical": _exec_identical(results.run(fxr, app))}
        for base, fxr in zip(series[::2], series[1::2])
        for app in apps
    ]


def _hints_rows(results: Results, series, apps) -> list[dict]:
    """Speedup over Base and MERGE share of MMT-FXR on the plain program
    and MMT-FXR+H on the hinted one, and the ratio of their energy per
    job (hinted over plain)."""
    base, plain, hinted = series
    rows = []
    for app in apps:
        cycles = results.run(base, app).cycles
        row = {"app": app}
        per_job = {}
        for s in (plain, hinted):
            result = results.run(s, app)
            row[f"{s.key} speedup"] = cycles / result.cycles
            row[f"{s.key} merge"] = result.stats.mode_breakdown()["merge"]
            per_job[s.key] = result.energy.total / max(
                1, result.stats.committed_thread_insts)
        row["energy ratio"] = per_job[hinted.key] / per_job[plain.key]
        rows.append(row)
    return rows


def _modes(result) -> dict:
    """Fetched-instruction fractions by fetch mode of one run."""
    modes = result.stats.mode_breakdown()
    return {
        "merge": modes[FetchMode.MERGE.value],
        "detect": modes[FetchMode.DETECT.value],
        "catchup": modes[FetchMode.CATCHUP.value],
    }


def _identified_rows(results: Results, series, apps) -> list[dict]:
    """Identified fetch/execute-identical fractions under MMT-FXR
    (Fig 5(b))."""
    (fxr,) = series
    return [
        {"app": app, **results.run(fxr, app).stats.identified_breakdown()}
        for app in apps
    ]


def _fetch_mode_rows(results: Results, series, apps) -> list[dict]:
    """Fetched-instruction breakdown by fetch mode under MMT-FXR
    (Fig 5(d))."""
    (fxr,) = series
    rows = []
    for app in apps:
        result = results.run(fxr, app)
        rows.append({"app": app, **_modes(result),
                     "remerge_within_512": result.sync_stats.remerge_within(512)})
    return rows


def _fhb_mode_rows(results: Results, series, apps) -> list[dict]:
    """Fetch-mode breakdown as the FHB size varies (Fig 7(c))."""
    return [
        {"app": app, "fhb_size": s.key, **_modes(results.run(s, app))}
        for app in apps
        for s in series
    ]


def _energy_rows(results: Results, series, apps) -> list[dict]:
    """Energy per job, normalised to the first series (Fig 6).

    One bar per series and application, each split into cache /
    MMT-overhead / other energy.  Multi-execution doubles the work when
    doubling threads, multi-threaded splits the same work, so energy is
    normalised *per job* (per committed thread-instruction).
    """
    rows = []
    for app in apps:
        bars = {}
        for s in series:
            result = results.run(s, app)
            work = max(1, result.stats.committed_thread_insts)
            per_job = {
                "cache": result.energy.cache / work,
                "mmt_overhead": result.energy.mmt_overhead / work,
                "other": result.energy.other / work,
            }
            per_job["total"] = sum(per_job.values())
            bars[s.key] = per_job
        reference = bars[series[0].key]["total"]
        for bar in bars.values():
            for key in ("cache", "mmt_overhead", "other", "total"):
                bar[key] /= reference
        rows.append({"app": app, **bars})
    rows.append({"app": "geomean", **{
        s.key: {"total": geomean(row[s.key]["total"] for row in rows),
                "cache": 0.0, "mmt_overhead": 0.0, "other": 0.0}
        for s in series
    }})
    return rows


# -------------------------------------------------------------------- Tables
def table3_hardware() -> list[dict]:
    """The MMT hardware budget (paper Table 3)."""
    return [
        {
            "component": row.component,
            "description": row.description,
            "area": row.area,
            "delay": row.delay,
            "storage_bits": row.storage_bits,
        }
        for row in hardware_budget()
    ]


def table4_configuration(machine: MachineConfig | None = None) -> list[tuple[str, str]]:
    """The simulator configuration (paper Table 4)."""
    return (machine or MachineConfig()).table4_rows()


def table5_configurations() -> list[tuple[str, str]]:
    """The evaluated MMT configurations (paper Table 5)."""
    return MMTConfig.table5_rows()


# ------------------------------------------------------- the target table
def _energy_layout(rows, title=None) -> str:
    """Figure 6 as a table: one line per application and bar."""
    flat = [
        {"app": row["app"], "bar": label, "cache": bar["cache"],
         "overhead": bar["mmt_overhead"], "other": bar["other"],
         "total": bar["total"]}
        for row in rows
        for label, bar in row.items()
        if label != "app"
    ]
    return format_table(
        flat, columns=["app", "bar", "cache", "overhead", "other", "total"],
        title=title,
    )


class Figure(NamedTuple):
    """One ``repro`` target: a figure or table of the paper's evaluation,
    or an ablation or extension sweep beyond it.

    *description* is its ``repro list`` line and *title* heads its report.
    *series* returns its simulated point set, each :class:`Series` run
    once per application (``[]``: it simulates nothing).  *rows*
    ``(results, series, apps)`` computes the data rows from those runs,
    read through a :class:`Results`, and *layout* ``(rows, title=None)``
    renders them as the paper does.  *sharing* marks Figures 1 and 2,
    whose rows read functional-trace profiles (:class:`SharingPoint`)
    instead.  *apps* are a sweep's own applications, which it runs
    whatever applications the run names; the paper's figures have none
    and run the run's.
    """

    description: str
    title: str
    rows: Callable[..., list]
    layout: Callable[..., str]
    series: Callable[[], list[Series]] = list
    sharing: bool = False
    apps: tuple[str, ...] = ()

    def compute(self, results: Mapping | None = None, apps=None,
                scale: float = 1.0) -> list:
        """The figure's data rows for its own applications, or else *apps*
        (default: all sixteen), at *scale*, read from *results*, the
        payloads of its campaigns by job (:func:`results_of`).  A point
        they lack raises ``KeyError``; tables read none."""
        return self.rows(Results(results or {}, scale), self.series(),
                         list(self.apps or apps or default_apps()))

    def render(self, rows) -> str:
        """*rows* in the paper's layout, under the title."""
        return self.layout(rows, title=self.title)


_SPEEDUP_LAYOUT = partial(
    format_table, columns=["app", "MMT-F", "MMT-FX", "MMT-FXR", "Limit"]
)


def _ablation(description: str, title: str, column: str, variants) -> Figure:
    """An ablation target: MMT-FXR variants over Base on the ablation
    apps, one row per variant with a column per app and the geomean."""
    return Figure(
        description, title, partial(_variant_rows, column),
        partial(format_table, columns=[column, *ABLATION_APPS, "geomean"]),
        lambda: _over_base(variants()), apps=ABLATION_APPS,
    )


#: Every figure, table and sweep ``repro`` regenerates, in ``repro list``
#: order.
FIGURES: dict[str, Figure] = {
    "fig1": Figure(
        "instruction-sharing breakdown",
        "Figure 1 — Instruction sharing characteristics",
        _sharing_rows,
        partial(
            format_table,
            columns=["app", "execute_identical", "fetch_identical_only",
                     "not_identical", "paper_execute_identical",
                     "paper_fetch_identical"],
            headers=["app", "exec-id", "fetch-only", "not-id", "paper exec",
                     "paper fetch"],
        ),
        sharing=True,
    ),
    "fig2": Figure(
        "divergent-path-length histogram",
        "Figure 2 — Divergent path length difference (cumulative)",
        _divergence_rows,
        partial(format_table, columns=["app"] + [f"<={b}" for b in FIG2_BUCKETS],
                float_format="{:.2f}"),
        sharing=True,
    ),
    "fig5a": Figure(
        "speedups, 2 threads",
        "Figure 5(a) — Speedup over 2-thread SMT",
        _speedup_rows, _SPEEDUP_LAYOUT, lambda: _paper_series(2),
    ),
    "fig5b": Figure(
        "identified identical instructions",
        "Figure 5(b) — Identified identical instructions (MMT-FXR)",
        _identified_rows,
        partial(format_stacked_bars, label_key="app",
                part_keys=["exec_identical", "exec_identical_regmerge",
                           "fetch_identical", "not_identical"]),
        lambda: _fxr_series(2),
    ),
    "fig5c": Figure(
        "speedups, 4 threads",
        "Figure 5(c) — Speedup over 4-thread SMT",
        _speedup_rows, _SPEEDUP_LAYOUT, lambda: _paper_series(4),
    ),
    "fig5d": Figure(
        "fetch-mode breakdown",
        "Figure 5(d) — Instruction breakdown by fetch mode (MMT-FXR)",
        _fetch_mode_rows,
        partial(format_stacked_bars, label_key="app",
                part_keys=["merge", "detect", "catchup"]),
        lambda: _fxr_series(2),
    ),
    "fig6": Figure(
        "energy per job",
        "Figure 6 — Energy per job, normalised to SMT-2T",
        _energy_rows, _energy_layout, _energy_series,
    ),
    "fig7a": Figure(
        "FHB size sweep (speedup)",
        "Figure 7(a) — Speedup vs FHB size",
        _speedup_rows,
        partial(format_table, columns=["app", *FHB_SIZES]),
        lambda: _fhb_series(FHB_SIZES, 2, base=True),
    ),
    "fig7b": Figure(
        "load/store port sweep",
        "Figure 7(b) — Speedup vs load/store ports",
        partial(_sweep_rows, "ldst_ports"),
        partial(format_table, columns=["ldst_ports", "geomean_speedup"]),
        lambda: _port_series(LDST_PORT_COUNTS, 4),
    ),
    "fig7c": Figure(
        "FHB size sweep (fetch modes)",
        "Figure 7(c) — Fetch modes vs FHB size",
        _fhb_mode_rows,
        partial(format_table,
                columns=["app", "fhb_size", "merge", "detect", "catchup"],
                float_format="{:.2f}"),
        lambda: _fhb_series(FHB_SIZES, 2, base=False),
    ),
    "fig7d": Figure(
        "fetch width sweep",
        "Figure 7(d) — Speedup vs fetch width",
        partial(_sweep_rows, "fetch_width"),
        partial(format_table, columns=["fetch_width", "geomean_speedup"]),
        lambda: _width_series(FETCH_WIDTHS, 4),
    ),
    "table3": Figure(
        "hardware budget",
        "Table 3 — Hardware requirements",
        lambda results, series, apps: table3_hardware(),
        partial(format_table, columns=["component", "description", "area",
                                       "delay", "storage_bits"]),
    ),
    "table4": Figure(
        "simulator configuration",
        "Table 4 — Simulator configuration",
        lambda results, series, apps: table4_configuration(),
        format_pairs,
    ),
    "table5": Figure(
        "evaluated configurations",
        "Table 5 — Configurations",
        lambda results, series, apps: table5_configurations(),
        format_pairs,
    ),
    "abl-drain": _ablation(
        "ablation: post-remerge drain (§4.2.7)",
        "Ablation — post-remerge drain (MMT-FXR speedup over Base, 2 "
        "threads)",
        "drain",
        lambda: [Series(label, _fxr(remerge_drain=drain), 2)
                 for label, drain in REMERGE_DRAINS],
    ),
    "abl-trace-cache": _ablation(
        "ablation: trace cache on and off",
        "Ablation — trace cache (paper: negligible effect on the results)",
        "fetch",
        lambda: [Series(label, MMTConfig.mmt_fxr(), 2, MachineConfig(
                     num_threads=2, trace_cache_enabled=enabled))
                 for label, enabled in TRACE_CACHE],
    ),
    "abl-catchup": _ablation(
        "ablation: CATCHUP branch budget",
        "Ablation — CATCHUP branch budget",
        "budget",
        lambda: [Series(budget, _fxr(max_catchup_branches=budget), 2)
                 for budget in CATCHUP_BUDGETS],
    ),
    "abl-read-ports": _ablation(
        "ablation: register-merge read ports (§4.2.7)",
        "Ablation — register-merge read ports (§4.2.7)",
        "read_ports",
        lambda: [Series(ports, _fxr(merge_read_ports=ports), 2)
                 for ports in MERGE_READ_PORTS],
    ),
    "abl-skew": Figure(
        "ablation: scheduling skew (§4.4 gang scheduling)",
        "Ablation — scheduling skew (§4.4 gang scheduling)",
        _skew_rows,
        partial(format_table, columns=["skew_cycles"] + [
            f"{app} {key}" for app in SKEW_APPS
            for key in ("speedup", "exec-id")]),
        _skew_series, apps=SKEW_APPS,
    ),
    "ext-mp": Figure(
        "extension: message-passing workloads (§7)",
        "Extension — message-passing workloads (paper §7 future work)",
        _message_passing_rows,
        partial(format_table, columns=["pattern", "speedup", "exec_identical"]),
        lambda: _over_base(Series(ranks, MMTConfig.mmt_fxr(), ranks)
                           for ranks in MP_RANKS),
        apps=MP_APPS,
    ),
    "ext-hints": Figure(
        "extension: Thread Fusion software hints",
        "Extension — Thread Fusion software hints on MMT-FXR (2 threads)",
        _hints_rows,
        partial(format_table, columns=[
            "app", "MMT-FXR speedup", "MMT-FXR+H speedup", "MMT-FXR merge",
            "MMT-FXR+H merge", "energy ratio"]),
        _hints_series, apps=HINT_APPS,
    ),
}


# ----------------------------------------------------------- paper claims
#: Table 4's machine values, as the paper lists them.
_TABLE4_VALUES = {
    "Threads": "4", "Issue/Commit Width": "8/8", "ROB Size": "256",
    "LSQ Size": "64", "ALU/FPU units": "6/3", "BTB/RAS Size": "2048/16",
    "DRAM Latency": "200",
}


def paper_claims(rows) -> list[tuple[str, str, bool]]:
    """The paper's shape claims, checked on *rows*: every :data:`FIGURES`
    target mapped to its rows, a paper figure's over the sixteen paper
    apps and a sweep's over its own.

    Returns one ``(figure, claim, holds)`` per claim; the claim's text
    carries the values it compared.  Two claims read another figure's
    rows: Fig 5(b) bounds what MMT identifies by Fig 1's profile, and Fig
    5(c) compares its geomean with Fig 5(a)'s.  The claims of the
    ablations and extensions are the ones their design points rest on
    (the shipped defaults, §4.4's gang scheduling, §7's message-passing
    class, Thread Fusion's hints).  The thresholds are set for scale 1.0,
    the calibrated size.
    """
    claims = []

    def claim(figure: str, text: str, holds) -> None:
        claims.append((figure, text, bool(holds)))

    average = rows["fig1"][-1]
    exe, fetch = average["execute_identical"], average["fetch_identical_only"]
    claim("fig1", f"average execute-identical {exe:.3f} > 0.25 (paper 0.35)",
          exe > 0.25)
    claim("fig1", f"average not-identical {average['not_identical']:.3f} "
          "< 0.25", average["not_identical"] < 0.25)
    claim("fig1", f"average fetch-identical {exe + fetch:.3f} > 0.70 "
          "(paper 0.88)", exe + fetch > 0.70)

    within16 = {row["app"]: row["<=16"] for row in rows["fig2"]}
    easy = [app for app in within16 if app not in ("equake", "vortex")]
    good = sum(within16[app] >= 0.85 for app in easy)
    claim("fig2", f"{good} of {len(easy)} apps besides equake and vortex "
          "have >= 85% of divergences within 16 taken branches (70% must)",
          good >= len(easy) * 0.7)
    claim("fig2", f"equake ({within16['equake']:.2f}) or vortex "
          f"({within16['vortex']:.2f}) has < 85% within 16",
          within16["equake"] < 0.85 or within16["vortex"] < 0.85)

    geo2 = rows["fig5a"][-1]
    fxr2 = geo2["MMT-FXR"]
    fxr = {row["app"]: row["MMT-FXR"] for row in rows["fig5a"]}
    # The paper's strongest and weakest two-thread gainers.
    strong_apps = ("ammp", "mcf", "water-sp")
    weak_apps = ("twolf", "vortex", "vpr")
    strong = sum(fxr[a] for a in strong_apps) / len(strong_apps)
    weak = sum(fxr[a] for a in weak_apps) / len(weak_apps)
    limits = [row["Limit"] for row in rows["fig5a"]]
    claim("fig5a", f"geomean MMT-FXR {fxr2:.3f} >= MMT-FX "
          f"{geo2['MMT-FX']:.3f} - 0.02", fxr2 >= geo2["MMT-FX"] - 0.02)
    claim("fig5a", f"geomean Limit {geo2['Limit']:.3f} > MMT-FXR",
          geo2["Limit"] > fxr2)
    claim("fig5a", f"geomean MMT-FXR {fxr2:.3f} > 1.0 (paper 1.15)",
          fxr2 > 1.0)
    claim("fig5a", f"MMT-FXR mean of {', '.join(strong_apps)} {strong:.3f} "
          f"> {', '.join(weak_apps)} {weak:.3f}", strong > weak)
    claim("fig5a", f"Limit > 1.0 on every row (min {min(limits):.3f})",
          all(limit > 1.0 for limit in limits))

    regmerge = {row["app"]: row["exec_identical_regmerge"]
                for row in rows["fig5b"]}
    merged = ("equake", "mcf", "water-ns")
    potential = {row["app"]: row["execute_identical"] for row in rows["fig1"]}
    identified = {row["app"]: row["exec_identical"] + regmerge[row["app"]]
                  for row in rows["fig5b"]}
    excess = max(identified[app] - potential[app] for app in identified)
    claim("fig5b", f"register merging > 5% for {', '.join(merged)} "
          f"(max {max(regmerge[a] for a in merged):.3f})",
          any(regmerge[a] > 0.05 for a in merged))
    claim("fig5b", "identified execute-identical <= Fig 1's profile + 0.15 "
          f"on every app (max excess {excess:+.3f})",
          all(identified[a] <= potential[a] + 0.15 for a in identified))

    geo4 = rows["fig5c"][-1]
    fxr4 = geo4["MMT-FXR"]
    claim("fig5c", f"geomean MMT-FXR {fxr4:.3f} > 1.10 (paper 1.25)",
          fxr4 > 1.10)
    claim("fig5c", f"geomean Limit {geo4['Limit']:.3f} > MMT-FXR",
          geo4["Limit"] > fxr4)
    claim("fig5c", f"4T MMT-FXR {fxr4:.3f} > 2T {fxr2:.3f} "
          "(paper 1.25 and 1.15)", fxr4 > fxr2)

    merge = {row["app"]: max(row["merge"], 1e-6) for row in rows["fig5d"]}
    # Irregular control merges the least (§6.3).
    regular_apps = ("ammp", "water-sp", "fft")
    irregular_apps = ("twolf", "vpr", "vortex")
    regular = geomean(merge[a] for a in regular_apps)
    irregular = geomean(merge[a] for a in irregular_apps)
    remerge = [row["remerge_within_512"] for row in rows["fig5d"]]
    remerge_mean = sum(remerge) / len(remerge)
    claim("fig5d", f"MERGE share of {', '.join(regular_apps)} {regular:.3f} "
          f"> {', '.join(irregular_apps)} {irregular:.3f}", regular > irregular)
    claim("fig5d", "mean share of remerges within 512 fetched branches "
          f"{remerge_mean:.2f} > 0.75 (paper ~0.90)", remerge_mean > 0.75)

    energy = rows["fig6"][-1]
    ratio2 = energy["MMT-2T"]["total"] / energy["SMT-2T"]["total"]
    ratio4 = energy["MMT-4T"]["total"] / energy["SMT-4T"]["total"]
    overheads = [row[bar]["mmt_overhead"] / max(row[bar]["total"], 1e-9)
                 for row in rows["fig6"][:-1] for bar in ("MMT-2T", "MMT-4T")]
    claim("fig6", f"MMT-2T energy per job below SMT-2T (ratio {ratio2:.2f})",
          energy["MMT-2T"]["total"] < energy["SMT-2T"]["total"])
    claim("fig6", f"MMT-4T energy per job below SMT-4T (ratio {ratio4:.2f})",
          energy["MMT-4T"]["total"] < energy["SMT-4T"]["total"])
    claim("fig6", f"MMT-4T / SMT-4T energy per job {ratio4:.2f} < 0.95 "
          "(paper ~0.66)", ratio4 < 0.95)
    claim("fig6", "MMT overhead < 6% of every MMT bar "
          f"(max {max(overheads):.3f})", all(o < 0.06 for o in overheads))

    fhb = rows["fig7a"][-1]
    speedups = [row[size] for row in rows["fig7a"] for size in FHB_SIZES]
    claim("fig7a", f"geomean at FHB 32 {fhb[32]:.3f} >= FHB 8 "
          f"{fhb[8]:.3f} - 0.02", fhb[32] >= fhb[8] - 0.02)
    claim("fig7a", f"every speedup in (0.5, 3.0) ({min(speedups):.3f} to "
          f"{max(speedups):.3f})", all(0.5 < s < 3.0 for s in speedups))

    ports = [row["ldst_ports"] for row in rows["fig7b"]]
    by_ports = [row["geomean_speedup"] for row in rows["fig7b"]]
    claim("fig7b", f"load/store ports swept: {ports}",
          ports == list(LDST_PORT_COUNTS))
    claim("fig7b", f"geomean > 0.9 at every port count (min "
          f"{min(by_ports):.3f})", all(s > 0.9 for s in by_ports))
    claim("fig7b", f"geomean at {ports[-1]} ports {by_ports[-1]:.3f} >= "
          f"{ports[0]} ports {by_ports[0]:.3f} - 0.05",
          by_ports[-1] >= by_ports[0] - 0.05)

    totals = [row["merge"] + row["detect"] + row["catchup"]
              for row in rows["fig7c"]]
    apps = len(rows["fig2"])
    claim("fig7c", "fetch-mode shares sum to 1 on every row (max error "
          f"{max(abs(t - 1.0) for t in totals):.1e})",
          all(abs(t - 1.0) < 1e-9 for t in totals))
    claim("fig7c", f"{len(totals)} rows: {apps} apps x {len(FHB_SIZES)} "
          "FHB sizes", len(totals) == apps * len(FHB_SIZES))

    widths = [row["fetch_width"] for row in rows["fig7d"]]
    by_width = {row["fetch_width"]: row["geomean_speedup"]
                for row in rows["fig7d"]}
    claim("fig7d", f"fetch widths swept: {widths}",
          widths == list(FETCH_WIDTHS))
    claim("fig7d", f"geomean at width 32 {by_width[32]:.3f} > 1.0 "
          "(paper ~1.11)", by_width[32] > 1.0)
    claim("fig7d", f"geomean at width 4 {by_width[4]:.3f} >= width 32 "
          f"{by_width[32]:.3f} - 0.05", by_width[4] >= by_width[32] - 0.05)

    budget = hardware_budget()
    bits, overhead = total_storage_bits(budget), storage_overhead_fraction(budget)
    claim("table3", f"MMT storage {bits} bits ({bits / 8 / 1024:.1f} KiB) "
          f"is {overhead * 100:.2f}% < 2% of on-chip cache storage",
          overhead < 0.02)

    machine = dict(rows["table4"])
    differ = [key for key, value in _TABLE4_VALUES.items()
              if machine.get(key) != value]
    if "1024" not in machine.get("Branch Predictor", ""):
        differ.append("Branch Predictor")
    claim("table4", f"{8 - len(differ)} of 8 machine values as the paper's"
          + (f" (differ: {', '.join(differ)})" if differ else ""), not differ)

    names = [name for name, _ in rows["table5"]]
    claim("table5", f"configurations {', '.join(names)}",
          names == ["Base", "MMT-F", "MMT-FX", "MMT-FXR", "Limit"])

    drain = {row["drain"]: row["geomean"] for row in rows["abl-drain"]}
    claim("abl-drain", f"geomean with the drain off {drain['off']:.3f} >= "
          f"full {drain['full']:.3f} - 0.02 (the shipped default)",
          drain["off"] >= drain["full"] - 0.02)

    fetch = {row["fetch"]: row["geomean"] for row in rows["abl-trace-cache"]}
    cached, plain = fetch["trace-cache"], fetch["plain-L1I"]
    claim("abl-trace-cache", f"geomean with the trace cache {cached:.3f} "
          f"within 0.20 of plain L1I {plain:.3f} (paper: negligible)",
          abs(cached - plain) < 0.20)

    budgets = [row["geomean"] for row in rows["abl-catchup"]]
    claim("abl-catchup", f"geomean > 0.7 at every CATCHUP budget (min "
          f"{min(budgets):.3f})", all(b > 0.7 for b in budgets))

    read = {row["read_ports"]: row["geomean"]
            for row in rows["abl-read-ports"]}
    few, many = MERGE_READ_PORTS[0], MERGE_READ_PORTS[-1]
    claim("abl-read-ports", f"geomean at {many} read ports {read[many]:.3f} "
          f">= {few} port {read[few]:.3f} - 0.03",
          read[many] >= read[few] - 0.03)

    skew = {row["skew_cycles"]: row["ammp exec-id"] for row in rows["abl-skew"]}
    aligned, skewed = skew[0], skew[SKEW_CYCLES[-1]]
    claim("abl-skew", f"ammp execute-identical at 0 skew cycles {aligned:.3f} "
          f"> 2 x at {SKEW_CYCLES[-1]} ({skewed:.3f})", aligned > 2 * skewed)

    patterns = {row["pattern"]: row for row in rows["ext-mp"]}
    merged = min(row["exec_identical"] for row in rows["ext-mp"])
    ring2 = patterns["ring-2rank"]["speedup"]
    ring4 = patterns["ring-4rank"]["speedup"]
    claim("ext-mp", f"execute-identical > 0.15 on every pattern (min "
          f"{merged:.3f})", merged > 0.15)
    claim("ext-mp", f"ring-4rank speedup {ring4:.3f} >= ring-2rank "
          f"{ring2:.3f} - 0.05", ring4 >= ring2 - 0.05)

    hinted = {row["app"]: row for row in rows["ext-hints"]}
    for app in ("vpr", "twolf"):
        row = hinted[app]
        claim("ext-hints", f"{app} MERGE share with hints "
              f"{row['MMT-FXR+H merge']:.3f} > without {row['MMT-FXR merge']:.3f}",
              row["MMT-FXR+H merge"] > row["MMT-FXR merge"])
    ratio = hinted["vpr"]["energy ratio"]
    claim("ext-hints", f"vpr energy per job with hints / without {ratio:.3f} "
          "< 1.0", ratio < 1.0)
    return claims


# ----------------------------------------------------- campaign points
def figure_points(
    fig_id: str, apps=None, scale: float = 1.0, engine: str = "reference"
) -> list[CampaignJob]:
    """Every simulation point *fig_id* needs, as campaign jobs on
    *engine*: its :data:`FIGURES` entry's series, each over the entry's
    own applications or else *apps*.

    Speedup figures include the Base runs their numerators divide by.
    Returns [] for figures that do not run the cycle-level simulator
    (fig1/fig2 profile functional traces; tables need no runs at all).
    """
    figure = FIGURES.get(fig_id)
    if figure is None:
        return []
    apps = list(figure.apps or apps or default_apps())
    return [
        CampaignJob(app, s.config, s.threads, machine=s.machine, scale=scale,
                    engine=engine)
        for s in figure.series()
        for app in apps
    ]


@dataclass
class FigureRun:
    """The campaigns :func:`run_figures` ran, and the rows it computed."""

    #: The targets' simulation points (``None``: no target simulates).
    points: CampaignResult | None
    #: Figures 1 and 2's sharing profiles (``None``: neither is a target).
    sharing: CampaignResult | None
    #: Each target's rows; ``None`` when a job failed or a result
    #: contradicted its oracle, so no row reads a result the gate rejected.
    rows: dict[str, list] | None = None

    @property
    def campaigns(self) -> list[CampaignResult]:
        return [c for c in (self.points, self.sharing) if c is not None]


def run_figures(
    targets, apps=None, scale: float = 1.0, *, engine: str = "reference",
    **options,
) -> FigureRun:
    """Run the campaigns of the :data:`FIGURES` *targets* over *apps*
    (default: all sixteen; a sweep runs its own), then compute each
    target's rows from their results.

    The targets' de-duplicated points run on *engine* as one
    :func:`~repro.harness.experiment.run_points` campaign (lint, result
    cache, oracle gate), and Figures 1 and 2's sharing profiles as one
    more (:func:`sharing_row`); *options* (workers, cache, timeout,
    progress, ...) go to both.  A workload that fails its pre-dispatch
    check raises before anything simulates.
    """
    apps = list(apps or default_apps())
    points = list(dict.fromkeys(
        point for target in targets
        for point in figure_points(target, apps, scale, engine)
    ))
    profiles = ([SharingPoint(app, scale) for app in apps]
                if any(FIGURES[target].sharing for target in targets) else [])
    run = FigureRun(
        experiment.run_points(points, **options) if points else None,
        run_campaign(profiles, sharing_row, **options) if profiles else None,
    )
    if not any(c.failures or c.validation_failures for c in run.campaigns):
        results = results_of(*run.campaigns)
        run.rows = {target: FIGURES[target].compute(results, apps, scale)
                    for target in targets}
    return run
