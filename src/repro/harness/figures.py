"""Regenerators for every table and figure of the paper's evaluation.

Each function returns plain data structures (lists of dicts) so callers —
the CLI, the examples, tests — can print, assert, or plot them.
:data:`FIGURES` declares every figure and table once, as one ``repro``
target: its ``list`` line, its title, its simulated point set, its rows
and its paper layout (rendered by ``repro.harness.report``).
:func:`paper_claims` checks the paper's shape claims on the rows of all
of them.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

from repro.core.config import MMTConfig
from repro.core.sync import FetchMode
from repro.harness.campaign import CampaignResult, run_campaign
from repro.harness.experiment import (
    CampaignJob,
    default_apps,
    default_engine,
    geomean,
    run_app,
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


# ------------------------------------------------------------------ Figure 1
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


#: Memo of computed sharing rows, keyed by (app, scale).  Deterministic
#: (traces are seeded by app name), so the sharing campaign
#: (:func:`run_sharing`) and the serial path below fill it
#: interchangeably.
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


# ----------------------------------------------------------- paper claims
#: Table 4's machine values, as the paper lists them.
_TABLE4_VALUES = {
    "Threads": "4", "Issue/Commit Width": "8/8", "ROB Size": "256",
    "LSQ Size": "64", "ALU/FPU units": "6/3", "BTB/RAS Size": "2048/16",
    "DRAM Latency": "200",
}


def paper_claims(rows) -> list[tuple[str, str, bool]]:
    """The paper's shape claims, checked on *rows*: every :data:`FIGURES`
    target mapped to its rows over the sixteen paper apps.

    Returns one ``(figure, claim, holds)`` per claim; the claim's text
    carries the values it compared.  Two claims read another figure's
    rows: Fig 5(b) bounds what MMT identifies by Fig 1's profile, and Fig
    5(c) compares its geomean with Fig 5(a)'s.  The thresholds are set
    for scale 1.0, the calibrated size.
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
    return claims


# ----------------------------------------------------- campaign points
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


def run_sharing(apps=None, scale: float = 1.0, **options) -> CampaignResult:
    """Profile the sharing rows of Figures 1 and 2 for *apps* as one
    campaign (:func:`run_campaign` with *options*: workers, cache,
    timeout, ...), skipping rows already memoised.  Each successful row
    is memoised, so :func:`fig1_sharing` then profiles nothing."""
    jobs = [SharingPoint(app, scale) for app in (apps or default_apps())
            if (app, scale) not in _SHARING_ROWS]
    result = run_campaign(jobs, sharing_row, **options)
    for outcome in result.outcomes:
        if outcome.ok:
            _SHARING_ROWS[(outcome.job.app, outcome.job.scale)] = (
                outcome.payload
            )
    return result
