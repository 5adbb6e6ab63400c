"""Ablations of design choices DESIGN.md calls out (beyond the paper).

* post-remerge drain (off / capped / full) — the §4.2.7 repair-window
  trade-off;
* trace cache on/off — the paper reports it made a negligible difference;
* catchup budget — the false-positive exit cap;
* scheduling skew — what §4.4's gang-scheduling assumption is worth;
* register-merge read ports — the §4.2.7 repair bandwidth.

Each sweep but the skew one runs its points as one validated campaign
(``run_points``: lint, result cache, oracle gate) and reads its speedups
from the results.  The skew sweep delays one context's start, which no
campaign job carries, so it runs its cores directly.
"""

import dataclasses

from conftest import emit

from repro.core.config import MMTConfig
from repro.harness import CampaignJob, format_table, geomean, run_points

APPS = ["ammp", "equake", "vpr", "water-sp"]
THREADS = 2


def _speedups(variants, scale):
    """Speedup over Base of each ``(config, machine)`` variant on every
    app, from one validated campaign: one ``{app: speedup}`` per
    variant, Base run on the variant's machine."""
    def job(app, config, machine):
        return CampaignJob(app, config, THREADS, machine=machine, scale=scale)

    jobs = [job(app, each, machine)
            for config, machine in variants
            for app in APPS
            for each in (MMTConfig.base(), config)]
    result = run_points(list(dict.fromkeys(jobs)))
    assert not result.failures, [o.error for o in result.failures]
    assert result.validation_failures == []
    runs = {outcome.job: outcome.payload for outcome in result.outcomes}
    return [
        {app: runs[job(app, MMTConfig.base(), machine)].cycles
         / runs[job(app, config, machine)].cycles for app in APPS}
        for config, machine in variants
    ]


def test_ablation_remerge_drain(benchmark, scale):
    drains = (("off", 0), ("capped-12", 12), ("full", 10_000))

    def sweep():
        speeds = _speedups(
            [(dataclasses.replace(MMTConfig.mmt_fxr(), remerge_drain=drain),
              None) for _, drain in drains],
            scale,
        )
        return [
            {"drain": label, **each, "geomean": geomean(each.values())}
            for (label, _), each in zip(drains, speeds)
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Ablation — post-remerge drain (MMT-FXR speedup over Base, 2 threads)",
        format_table(rows, columns=["drain"] + APPS + ["geomean"]),
    )
    by_label = {row["drain"]: row["geomean"] for row in rows}
    # The shipped default (off) must not trail the full drain.
    assert by_label["off"] >= by_label["full"] - 0.02


def test_ablation_trace_cache(benchmark, scale):
    from repro.pipeline.config import MachineConfig

    fetches = (("trace-cache", True), ("plain-L1I", False))

    def sweep():
        speeds = _speedups(
            [(MMTConfig.mmt_fxr(),
              MachineConfig(num_threads=THREADS, trace_cache_enabled=enabled))
             for _, enabled in fetches],
            scale,
        )
        return [
            {"fetch": label, **each, "geomean": geomean(each.values())}
            for (label, _), each in zip(fetches, speeds)
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Ablation — trace cache (paper: negligible effect on the results)",
        format_table(rows, columns=["fetch"] + APPS + ["geomean"]),
    )
    values = [row["geomean"] for row in rows]
    assert abs(values[0] - values[1]) < 0.20  # same ballpark either way


def test_ablation_catchup_budget(benchmark, scale):
    budgets = (8, 64, 512)

    def sweep():
        speeds = _speedups(
            [(dataclasses.replace(MMTConfig.mmt_fxr(),
                                  max_catchup_branches=budget), None)
             for budget in budgets],
            scale,
        )
        return [
            {"budget": budget, **each, "geomean": geomean(each.values())}
            for budget, each in zip(budgets, speeds)
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Ablation — CATCHUP branch budget",
        format_table(rows, columns=["budget"] + APPS + ["geomean"]),
    )
    for row in rows:
        assert row["geomean"] > 0.7


def test_ablation_gang_scheduling(benchmark, scale):
    """§4.4: MMT assumes gang scheduling.  Quantify what scheduling skew
    costs by delaying the second context's start."""
    from repro.pipeline.config import MachineConfig
    from repro.pipeline.smt import SMTCore
    from repro.workloads.generator import build_workload
    from repro.workloads.profiles import get_profile

    apps = ["ammp", "water-sp"]

    def sweep():
        rows = []
        for delay in (0, 50, 150, 400):
            row = {"skew_cycles": delay}
            for app in apps:
                build = build_workload(get_profile(app), 2, scale=scale)
                base = SMTCore(
                    MachineConfig(num_threads=2), MMTConfig.base(), build.job()
                )
                base_cycles = base.run().cycles
                mmt = SMTCore(
                    MachineConfig(num_threads=2),
                    MMTConfig.mmt_fxr(),
                    build.job(),
                    start_delays=[0, delay],
                )
                stats = mmt.run()
                ident = stats.identified_breakdown()
                row[f"{app} speedup"] = base_cycles / stats.cycles
                row[f"{app} exec-id"] = (
                    ident["exec_identical"] + ident["exec_identical_regmerge"]
                )
            rows.append(row)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Ablation — scheduling skew (§4.4 gang scheduling)",
        format_table(
            rows,
            columns=["skew_cycles"]
            + [f"{app} {k}" for app in apps for k in ("speedup", "exec-id")],
        ),
    )
    by_delay = {row["skew_cycles"]: row for row in rows}
    # Aligned starts must merge far more than heavily skewed ones.
    assert by_delay[0]["ammp exec-id"] > 2 * by_delay[400]["ammp exec-id"]


def test_ablation_merge_read_ports(benchmark, scale):
    """§4.2.7 bounds register merging by spare register-file read ports;
    sweep the budget to see how port-starved the repairs are."""
    port_counts = (1, 2, 4, 8)

    def sweep():
        speeds = _speedups(
            [(dataclasses.replace(MMTConfig.mmt_fxr(), merge_read_ports=ports),
              None) for ports in port_counts],
            scale,
        )
        return [
            {"read_ports": ports, **each, "geomean": geomean(each.values())}
            for ports, each in zip(port_counts, speeds)
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Ablation — register-merge read ports (§4.2.7)",
        format_table(rows, columns=["read_ports"] + APPS + ["geomean"]),
    )
    speeds = [row["geomean"] for row in rows]
    # More ports never hurt; the default (2) captures most of the benefit.
    assert speeds[-1] >= speeds[0] - 0.03
