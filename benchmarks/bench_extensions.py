"""Extension experiments beyond the paper's evaluation.

1. **Message passing** — the third SPMD category of §3.1, which the paper
   names but defers (§7: "we have not evaluated another application class
   that would benefit greatly from our MMT hardware: message-passing
   applications").  Ranked processes exchange values over SEND/TRECV
   channels around context-identical compute.
2. **Software remerge hints** — Thread Fusion [36]-style compiler-marked
   rendezvous points, which the paper's related-work section says MMT
   "could be used in conjunction with ... to provide even better
   performance".  Measured here for both time and energy, since Thread
   Fusion itself targeted energy (ISLPED).
"""

from conftest import emit

from repro.core.config import MMTConfig
from repro.harness import format_table
from repro.pipeline.config import MachineConfig
from repro.pipeline.smt import SMTCore
from repro.power.model import energy_of_run
from repro.workloads.generator import build_workload
from repro.workloads.message_passing import build_mp_workload
from repro.workloads.profiles import get_profile


def test_ext_message_passing(benchmark, scale):
    def sweep():
        rows = []
        iterations = max(8, int(48 * scale))
        for nctx, pattern in ((2, "ring"), (2, "pairs"), (4, "ring"), (4, "pairs")):
            cycles = {}
            merged = 0.0
            for config in (MMTConfig.base(), MMTConfig.mmt_fxr()):
                build = build_mp_workload(nctx, pattern, iterations=iterations)
                job = build.job()
                core = SMTCore(MachineConfig(num_threads=nctx), config, job)
                stats = core.run()
                cycles[config.name] = stats.cycles
                if config.name == "MMT-FXR":
                    breakdown = stats.identified_breakdown()
                    merged = (
                        breakdown["exec_identical"]
                        + breakdown["exec_identical_regmerge"]
                    )
                    assert job.channels.total_queued() == 0
            rows.append(
                {
                    "pattern": f"{pattern}-{nctx}rank",
                    "speedup": cycles["Base"] / cycles["MMT-FXR"],
                    "exec_identical": merged,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Extension — message-passing workloads (paper §7 future work)",
        format_table(rows, columns=["pattern", "speedup", "exec_identical"]),
    )
    # The compute portion merges even though every SEND/TRECV splits.
    assert all(row["exec_identical"] > 0.15 for row in rows)
    # Four ranks must merge at least as profitably as two (the paper's
    # thread-scaling trend carries over to the new category).
    by = {row["pattern"]: row["speedup"] for row in rows}
    assert by["ring-4rank"] >= by["ring-2rank"] - 0.05


def test_ext_software_hints(benchmark, scale):
    apps = ["vpr", "twolf", "vortex", "water-ns"]

    def sweep():
        rows = []
        for app in apps:
            row = {"app": app}
            hinted = build_workload(get_profile(app), 2, scale=scale, hints=True)
            base = SMTCore(
                MachineConfig(num_threads=2), MMTConfig.base(), hinted.job()
            )
            base_stats = base.run()
            for label, config in (
                ("MMT-FXR", MMTConfig.mmt_fxr()),
                ("MMT-FXR+H", MMTConfig.mmt_fxr_hints()),
            ):
                job = hinted.job()
                core = SMTCore(MachineConfig(num_threads=2), config, job)
                stats = core.run()
                energy = energy_of_run(core)
                row[f"{label} speedup"] = base_stats.cycles / stats.cycles
                row[f"{label} merge"] = stats.mode_breakdown()["merge"]
                row[f"{label} E/job"] = energy.total / max(
                    1, stats.committed_thread_insts
                )
            row["energy ratio"] = row["MMT-FXR+H E/job"] / row["MMT-FXR E/job"]
            del row["MMT-FXR E/job"], row["MMT-FXR+H E/job"]
            rows.append(row)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Extension — Thread Fusion software hints on MMT-FXR (2 threads)",
        format_table(
            rows,
            columns=[
                "app", "MMT-FXR speedup", "MMT-FXR+H speedup",
                "MMT-FXR merge", "MMT-FXR+H merge", "energy ratio",
            ],
        ),
    )
    by_app = {row["app"]: row for row in rows}
    # Hints raise the merge fraction on flag-divergence applications...
    assert by_app["vpr"]["MMT-FXR+H merge"] > by_app["vpr"]["MMT-FXR merge"]
    assert by_app["twolf"]["MMT-FXR+H merge"] > by_app["twolf"]["MMT-FXR merge"]
    # ...and cut vpr's fetch energy, the Thread Fusion objective.
    assert by_app["vpr"]["energy ratio"] < 1.0
