"""Regenerators for every table and figure of the paper's evaluation.

Each function returns plain data structures (lists of dicts) so callers —
the benchmark harness, the examples, tests — can print, assert, or plot
them.  :data:`FIGURES` declares every figure and table once, as one
``repro`` target: its ``list`` line, its title, its simulated point set,
its rows and its paper layout (rendered by ``repro.harness.report``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from repro.core.config import MMTConfig
from repro.core.sync import FetchMode
from repro.harness.campaign import run_campaign
from repro.harness.experiment import (
    CampaignJob,
    default_apps,
    default_engine,
    geomean,
    run_app,
    run_points,
)
from repro.harness.report import format_pairs, format_stacked_bars, format_table
from repro.pipeline.config import MachineConfig
from repro.power.budget import hardware_budget
from repro.profiling.divergence import FIG2_BUCKETS, divergence_histogram
from repro.profiling.sharing import analyze_job
from repro.profiling.tracing import capture_job_traces
from repro.workloads.profiles import get_profile

#: Thread count used for the motivation study (the paper profiles pairs).
PROFILE_CONTEXTS = 2


# ------------------------------------------------------------------ Figure 1
@dataclass(frozen=True)
class SharingPoint:
    """One profiling point of the Figure 1/2 motivation study."""

    app: str
    scale: float = 1.0

    def label(self) -> str:
        return f"{self.app}/sharing"


#: Memo of computed sharing rows, keyed by (app, scale).  Deterministic
#: (traces are seeded by app name), so campaign prefetch and the serial
#: path below fill it interchangeably.
_SHARING_ROWS: dict[tuple[str, float], dict] = {}


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


def fig1_sharing(apps=None, scale: float = 1.0) -> list[dict]:
    """Instruction-sharing breakdown per application (paper Figure 1)."""
    rows = []
    for app in apps or default_apps():
        memo = (app, scale)
        if memo not in _SHARING_ROWS:
            _SHARING_ROWS[memo] = sharing_row(SharingPoint(app, scale))
        rows.append(dict(_SHARING_ROWS[memo]))
    avg = {
        "app": "average",
        "execute_identical": sum(r["execute_identical"] for r in rows) / len(rows),
        "fetch_identical_only": sum(r["fetch_identical_only"] for r in rows)
        / len(rows),
        "not_identical": sum(r["not_identical"] for r in rows) / len(rows),
        "paper_execute_identical": 0.35,
        "paper_fetch_identical": 0.88,
        "_gaps": [],
    }
    rows.append(avg)
    return rows


# ------------------------------------------------------------------ Figure 2
def fig2_divergence(apps=None, scale: float = 1.0) -> list[dict]:
    """Divergent-path length-difference histogram (paper Figure 2)."""
    rows = []
    for row in fig1_sharing(apps, scale=scale):
        if row["app"] == "average":
            continue
        histogram = divergence_histogram(row["_gaps"])
        rows.append({"app": row["app"], **{f"<={b}": v for b, v in histogram.items()}})
    return rows


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

    def run(self, app: str, scale: float):
        return run_app(app, self.config, self.threads, self.machine, scale)


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
    series = []
    for value in values:
        machine = vary(MachineConfig(num_threads=threads), value)
        series += [Series(value, MMTConfig.base(), threads, machine),
                   Series(value, MMTConfig.mmt_fxr(), threads, machine)]
    return series


def _port_series(ports, threads: int) -> list[Series]:
    return _sweep_series(ports, threads, MachineConfig.with_ldst_ports)


def _width_series(widths, threads: int) -> list[Series]:
    return _sweep_series(widths, threads, MachineConfig.with_fetch_width)


# ------------------------------------------------------- rows from runs
def _speedup_rows(series, apps, scale) -> list[dict]:
    """Per-application speedup of each series over the first, Base, at
    the same thread count; then the geomean row."""
    base, *others = series
    rows = []
    for app in apps or default_apps():
        cycles = base.run(app, scale).cycles
        rows.append({"app": app, **{
            s.key: cycles / s.run(app, scale).cycles for s in others
        }})
    rows.append({"app": "geomean", **{
        s.key: geomean(row[s.key] for row in rows) for s in others
    }})
    return rows


def _sweep_rows(column: str, series, apps, scale) -> list[dict]:
    """Geomean speedup of MMT-FXR over Base per swept value; *series*
    alternates Base and MMT-FXR."""
    apps = apps or default_apps()
    return [
        {column: fxr.key,
         "geomean_speedup": geomean(
             base.run(app, scale).cycles / fxr.run(app, scale).cycles
             for app in apps)}
        for base, fxr in zip(series[::2], series[1::2])
    ]


def _modes(result) -> dict:
    """Fetched-instruction fractions by fetch mode of one run."""
    modes = result.stats.mode_breakdown()
    return {
        "merge": modes[FetchMode.MERGE.value],
        "detect": modes[FetchMode.DETECT.value],
        "catchup": modes[FetchMode.CATCHUP.value],
    }


def _identified_rows(series, apps, scale) -> list[dict]:
    (fxr,) = series
    return [
        {"app": app, **fxr.run(app, scale).stats.identified_breakdown()}
        for app in apps or default_apps()
    ]


def _fetch_mode_rows(series, apps, scale) -> list[dict]:
    (fxr,) = series
    rows = []
    for app in apps or default_apps():
        result = fxr.run(app, scale)
        rows.append({"app": app, **_modes(result),
                     "remerge_within_512": result.sync_stats.remerge_within(512)})
    return rows


def _fhb_mode_rows(series, apps, scale) -> list[dict]:
    return [
        {"app": app, "fhb_size": s.key, **_modes(s.run(app, scale))}
        for app in apps or default_apps()
        for s in series
    ]


def _energy_rows(series, apps, scale) -> list[dict]:
    """One bar per series and application, each split into cache /
    MMT-overhead / other energy per job and normalised to the first."""
    rows = []
    for app in apps or default_apps():
        bars = {}
        for s in series:
            result = s.run(app, scale)
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


# ----------------------------------------------------------- Figures 5(a)/(c)
def fig5_speedups(
    threads: int, apps=None, scale: float = 1.0, machine: MachineConfig | None = None
) -> list[dict]:
    """Per-application speedups over same-thread-count Base (Fig 5(a)/(c))."""
    return _speedup_rows(_paper_series(threads, machine), apps, scale)


# ------------------------------------------------------------- Figure 5(b)
def fig5b_identified(threads: int = 2, apps=None, scale: float = 1.0) -> list[dict]:
    """Identified fetch/execute-identical fractions under MMT-FXR."""
    return _identified_rows(_fxr_series(threads), apps, scale)


# ------------------------------------------------------------- Figure 5(d)
def fig5d_modes(threads: int = 2, apps=None, scale: float = 1.0) -> list[dict]:
    """Fetched-instruction breakdown by fetch mode under MMT-FXR."""
    return _fetch_mode_rows(_fxr_series(threads), apps, scale)


# ------------------------------------------------------------------ Figure 6
def fig6_energy(apps=None, scale: float = 1.0) -> list[dict]:
    """Energy per job, normalised to SMT with 2 threads (paper Figure 6).

    Four bars per application: SMT-2T, MMT-2T, SMT-4T, MMT-4T, each split
    into cache / MMT-overhead / other.  Multi-execution doubles the work
    when doubling threads, multi-threaded splits the same work, so energy
    is normalised *per job* (per committed thread-instruction).
    """
    return _energy_rows(_energy_series(), apps, scale)


# ------------------------------------------------------- Figures 7(a)/(c)
FHB_SIZES = (8, 16, 32, 64, 128)


def fig7a_fhb_speedup(
    sizes=FHB_SIZES, threads: int = 2, apps=None, scale: float = 1.0
) -> list[dict]:
    """Speedup (MMT-FXR over Base) as the FHB size varies (Fig 7(a))."""
    return _speedup_rows(_fhb_series(sizes, threads, base=True), apps, scale)


def fig7c_fhb_modes(
    sizes=FHB_SIZES, threads: int = 2, apps=None, scale: float = 1.0
) -> list[dict]:
    """Fetch-mode breakdown as the FHB size varies (Fig 7(c))."""
    return _fhb_mode_rows(_fhb_series(sizes, threads, base=False), apps, scale)


# ------------------------------------------------------------- Figure 7(b)
LDST_PORT_COUNTS = (2, 4, 6, 8, 12)


def fig7b_ports(
    ports=LDST_PORT_COUNTS, threads: int = 4, apps=None, scale: float = 1.0
) -> list[dict]:
    """Geomean speedup as load/store ports (and MSHRs) vary (Fig 7(b))."""
    return _sweep_rows("ldst_ports", _port_series(ports, threads), apps, scale)


# ------------------------------------------------------------- Figure 7(d)
FETCH_WIDTHS = (4, 8, 16, 32)


def fig7d_fetch_width(
    widths=FETCH_WIDTHS, threads: int = 4, apps=None, scale: float = 1.0
) -> list[dict]:
    """Geomean speedup as the fetch width varies (Fig 7(d))."""
    return _sweep_rows("fetch_width", _width_series(widths, threads), apps, scale)


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
    """One ``repro`` target: a figure or table of the paper's evaluation.

    *description* is its ``repro list`` line and *title* heads its report.
    *series* returns its simulated point set, each :class:`Series` run
    once per application (``[]``: it simulates nothing).  *rows*
    ``(series, apps, scale)`` computes the data rows from those runs, and
    *layout* ``(rows, title=None)`` renders them as the paper does.
    *sharing* marks Figures 1 and 2, whose rows profile functional traces
    (:class:`SharingPoint`) instead.
    """

    description: str
    title: str
    rows: Callable[..., list]
    layout: Callable[..., str]
    series: Callable[[], list[Series]] = list
    sharing: bool = False

    def compute(self, apps=None, scale: float = 1.0) -> list:
        """The figure's data rows for *apps* (default: all sixteen)."""
        return self.rows(self.series(), apps, scale)

    def render(self, rows) -> str:
        """*rows* in the paper's layout, under the title."""
        return self.layout(rows, title=self.title)


_SPEEDUP_LAYOUT = partial(
    format_table, columns=["app", "MMT-F", "MMT-FX", "MMT-FXR", "Limit"]
)

#: Every figure and table ``repro`` regenerates, in ``repro list`` order.
FIGURES: dict[str, Figure] = {
    "fig1": Figure(
        "instruction-sharing breakdown",
        "Figure 1 — Instruction sharing characteristics",
        lambda series, apps, scale: fig1_sharing(apps, scale),
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
        lambda series, apps, scale: fig2_divergence(apps, scale),
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
        lambda series, apps, scale: table3_hardware(),
        partial(format_table, columns=["component", "description", "area",
                                       "delay", "storage_bits"]),
    ),
    "table4": Figure(
        "simulator configuration",
        "Table 4 — Simulator configuration",
        lambda series, apps, scale: table4_configuration(),
        format_pairs,
    ),
    "table5": Figure(
        "evaluated configurations",
        "Table 5 — Configurations",
        lambda series, apps, scale: table5_configurations(),
        format_pairs,
    ),
}


# ------------------------------------------------- campaign prefetching
def figure_points(
    fig_id: str, apps=None, scale: float = 1.0
) -> list[CampaignJob]:
    """Every simulation point *fig_id* needs, as campaign jobs: its
    :data:`FIGURES` entry's series, each over *apps*.

    Speedup figures include the Base runs their numerators divide by.
    Returns [] for figures that do not run the cycle-level simulator
    (fig1/fig2 profile functional traces; tables need no runs at all).
    """
    figure = FIGURES.get(fig_id)
    if figure is None:
        return []
    apps = list(apps or default_apps())
    # Jobs ship to worker processes, so the session's default engine is
    # pinned onto each one; the serial memo keys then line up with what
    # the figure regenerators will ask for.
    engine = default_engine()
    return [
        CampaignJob(app, s.config, s.threads, machine=s.machine, scale=scale,
                    engine=engine)
        for s in figure.series()
        for app in apps
    ]


def prefetch_figure(
    fig_id: str,
    apps=None,
    scale: float = 1.0,
    *,
    workers: int | None = None,
    cache=None,
    use_cache: bool = True,
    timeout: float | None = None,
    retries: int = 1,
    progress=None,
):
    """Run all of *fig_id*'s simulations as a parallel campaign.

    Successful results are seeded into the serial memo caches, so the
    figure regenerators afterwards reuse them without re-simulating.
    Returns the :class:`~repro.harness.campaign.CampaignResult` (or None
    for figures with nothing to prefetch).  Failed points are simply left
    to the serial path — prefetching is an accelerator, never a gate.
    """
    figure = FIGURES.get(fig_id)
    if figure is not None and figure.sharing:
        jobs = [
            SharingPoint(app, scale) for app in (apps or default_apps())
            if (app, scale) not in _SHARING_ROWS
        ]
        result = run_campaign(
            jobs, sharing_row, workers=workers, cache=cache,
            use_cache=use_cache, timeout=timeout, retries=retries,
            progress=progress,
        )
        for outcome in result.outcomes:
            if outcome.ok:
                _SHARING_ROWS[(outcome.job.app, outcome.job.scale)] = (
                    outcome.payload
                )
        return result
    points = figure_points(fig_id, apps=apps, scale=scale)
    if not points:
        return None
    return run_points(
        points, workers=workers, cache=cache, use_cache=use_cache,
        timeout=timeout, retries=retries, progress=progress,
    )
