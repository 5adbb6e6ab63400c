"""Command-line interface: regenerate any paper table or figure, or any
ablation or extension sweep.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro fig5a                # Figure 5(a), paper layout
    python -m repro fig6 --scale 0.5     # faster, smaller workloads
    python -m repro fig1 --apps ammp vpr
    python -m repro fig5a --workers 8    # on eight worker processes
    python -m repro campaign --apps ammp mcf --configs Base MMT-FXR \
        --threads 2 4 --workers 8       # batch sweep with result caching
    python -m repro abl-skew            # one ablation sweep (its own apps)
    python -m repro reproduce           # every target + the paper's claims
    python -m repro trace --apps ammp --config MMT-FXR --interval 1000 \
        --chrome trace.json             # traced run + Perfetto export

Each figure, table and sweep target is one entry of ``figures.FIGURES``
and prints it in its layout (a sweep runs its own applications).  The tool commands are the
entries of :data:`COMMANDS`.  Every simulation of a figure or a sweep
runs through ``experiment.run_points``: a figure target runs its points
as one campaign (``figures.run_figures``) and prints rows computed from
that campaign's results, ``reproduce`` does so for every figure and
checks the paper's claims on them, and ``campaign`` runs an arbitrary
(apps × configs × threads) sweep and prints a summary with cache
hit/miss counts.  Results are cached on disk (keyed by
configuration and code version), each workload a campaign simulates is
linted first, hung jobs are timed out and retried, and every result,
fresh or cached, is checked against its static redundancy oracle.  A
figure is printed only when all its points ran and passed that check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.host.selfcheck import JSON_SCHEMA_VERSION
from repro.core.config import MMTConfig
from repro.harness import experiment, figures, report, results
from repro.harness.experiment import CONFIG_FACTORIES
from repro.pipeline.fast import resolve_engine
from repro.workloads.suites import check_scale, check_threads

#: The ``src/`` root the host self-analysis reads; located from the
#: package itself so ``repro selfcheck`` works from any cwd.
_SRC_ROOT = Path(__file__).resolve().parent.parent.parent


# --------------------------------------------------------------- one point
def _point(args):
    """The one point ``trace``, ``profile`` and ``record`` run: the first
    of ``--apps`` (default: the first paper app) at the first of
    ``--threads``, under ``--config``.  Returns ``(app, config, threads)``,
    or None after printing why it does not resolve."""
    from repro.workloads.engine import WorkloadRegistryError

    app = (args.apps or experiment.default_apps())[0]
    threads = args.threads[0]
    factory = CONFIG_FACTORIES.get(args.config)
    if factory is None:
        known = ", ".join(sorted(CONFIG_FACTORIES))
        print(f"error: unknown config {args.config!r}; choose from: {known}")
        return None
    try:
        experiment.build_point(app, threads, scale=args.scale)
    except (KeyError, WorkloadRegistryError) as exc:
        print(f"error: {exc.args[0]}")
        return None
    return app, factory(), threads


# ------------------------------------------------------------------- trace
def _trace(args) -> int:
    """One observed run: interval table, reconciliation, optional exports."""
    point = _point(args)
    if point is None:
        return 2
    app, config, threads = point
    run, obs = experiment.trace_run(
        app, config, threads, scale=args.scale, interval=args.interval,
        engine=args.engine,
    )
    stats = run.stats
    rows = [
        {
            "cycles": f"{s.start_cycle}..{s.end_cycle}",
            "ipc": s.ipc(),
            "merge": s.mode_share().get("merge", 0.0),
            "rob": s.rob_occupancy,
            "iq": s.iq_occupancy,
            "lsq": s.lsq_occupancy,
            "mshr": s.mshr_outstanding,
            "fhb_hit": s.fhb_hit_rate(),
            "rst": s.rst_sharing,
        }
        for s in obs.interval.samples
    ]
    print(report.format_table(
        rows,
        columns=["cycles", "ipc", "merge", "rob", "iq", "lsq", "mshr",
                 "fhb_hit", "rst"],
        title=(f"Trace — {app}/{config.name}/{threads}t, "
               f"interval {args.interval} cycles"),
    ))
    counts = obs.sink.counts()
    print(report.format_pairs(
        sorted(counts.items()),
        title=f"Events ({sum(counts.values())} total)",
    ))
    mismatches = obs.interval.reconcile(stats)
    if mismatches:
        print("RECONCILIATION FAILED:")
        for line in mismatches:
            print(f"  {line}")
    else:
        print(f"\nfinal: {stats.cycles} cycles, IPC {stats.ipc():.3f} — "
              "interval sums reconcile exactly with final stats")
    if args.json:
        results.dump_trace(run, obs, args.json, extra={"scale": args.scale})
        print(f"[trace time series written to {args.json}]")
    if args.chrome:
        from repro.obs import write_chrome_trace

        write_chrome_trace(
            args.chrome, obs.sink.events, obs.interval.samples,
            metadata={"app": app, "config": config.name,
                      "threads": threads},
        )
        print(f"[Chrome trace for Perfetto written to {args.chrome}]")
    return 0 if not mismatches else 1


# ----------------------------------------------------------------- analyze
def _analyze(args) -> int:
    """Static analysis of guest workloads: lint + redundancy oracle."""
    from repro.analysis import lint_program
    from repro.analysis.redundancy import analyze_build
    from repro.workloads.engine import (
        WorkloadRegistryError,
        get_workload,
        is_engine_workload,
        workload_names,
    )
    from repro.workloads.profiles import APP_ORDER

    apps = list(APP_ORDER) if args.all_workloads else (
        args.apps or list(APP_ORDER)
    )
    suppress = tuple(args.suppress or ())

    def points(names):
        for name in names:
            for threads in args.threads:
                if (is_engine_workload(name)
                        and not get_workload(name).valid_nctx(threads)):
                    continue
                yield (f"{name}/{threads}t",
                       experiment.build_point(name, threads,
                                              scale=args.scale))

    try:
        targets = list(points(apps))  # (label, build)
        if args.all_workloads:
            targets += points(workload_names())
    except (KeyError, WorkloadRegistryError) as exc:
        print(f"error: {exc.args[0]}")
        return 2

    rows = []
    all_diags = []
    for label, build in targets:
        try:
            diags = lint_program(build.program, suppress=suppress)
        except ValueError as exc:  # unknown suppression rule
            print(f"error: {exc}")
            return 2
        oracle = analyze_build(build)
        row = {
            "workload": label,
            "insts": len(build.program),
            "diags": len(diags),
            "identical": oracle.identical_fraction,
            "input_div": oracle.input_divergent_fraction,
            "control_div": oracle.control_divergent_fraction,
            "merge_ub": oracle.merge_upper_bound,
            "rst_ub": oracle.rst_upper_bound,
        }
        if args.values:
            row.update({
                "lvip_ub": oracle.lvip_hit_rate_upper_bound,
                "must_id": oracle.lvip_must_identical_fraction,
                "widened": oracle.widened_loop_headers,
            })
        rows.append(row)
        all_diags.extend((label, d) for d in diags)

    # With the JSON document going to stdout, suppress the human-readable
    # report so consumers can parse the output directly.
    human_output = args.json != "-"
    columns = ["workload", "insts", "diags", "identical", "input_div",
               "control_div", "merge_ub", "rst_ub"]
    if args.values:
        columns += ["lvip_ub", "must_id", "widened"]
    if human_output:
        print(report.format_table(
            rows,
            columns=columns,
            title=f"Static analysis — {len(targets)} workload(s)"
                  + (f", suppressed: {', '.join(suppress)}"
                     if suppress else ""),
        ))
        for label, diag in all_diags:
            print(f"{label}: {diag}")
    if args.json:
        document = {
            "tool": "repro-analyze",
            "schema_version": JSON_SCHEMA_VERSION,
            "ok": not all_diags,
            "findings": [
                {
                    "workload": label,
                    "rule": diag.rule,
                    "severity": diag.severity,
                    "pc": diag.pc,
                    "block": diag.block,
                    "message": diag.message,
                }
                for label, diag in all_diags
            ],
            "summary": {
                "workloads": len(targets),
                "total": len(all_diags),
                "suppressed_rules": sorted(suppress),
            },
            "workloads": rows,
        }
        _write_json_document(document, args.json)
    if all_diags:
        if human_output:
            print(f"\n{len(all_diags)} unsuppressed diagnostic(s)")
        return 1
    if human_output:
        print("\nall workloads lint clean")
    return 0


def _write_json_document(document, dest: str) -> None:
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if dest == "-":
        sys.stdout.write(text)
    else:
        Path(dest).write_text(text)
        print(f"[JSON report written to {dest}]")


# --------------------------------------------------------------- selfcheck
def _selfcheck(args) -> int:
    """Host self-analysis: fast/reference drift check + determinism lint
    over the simulator's own source."""
    from repro.analysis.host.selfcheck import run_selfcheck, write_baseline

    root = Path(args.root) if args.root else _SRC_ROOT
    baseline = Path(args.baseline) if args.baseline else None
    report = run_selfcheck(root, baseline=baseline)
    if args.update_baseline:
        if baseline is None:
            print("error: --update-baseline requires --baseline PATH")
            return 2
        write_baseline(report, baseline)
        print(
            f"[baseline with {len(report.findings)} finding(s) written "
            f"to {baseline}]"
        )
        return 0
    if args.json:
        _write_json_document(report.to_json(), args.json)
    else:
        print(report.format_table())
    return 0 if report.ok else 1


# ---------------------------------------------------------------- campaign
def _known_apps(args, command):
    """``--apps`` (default: all sixteen), or None after printing the names
    among them that resolve to no workload."""
    from repro.workloads.engine import is_engine_workload, workload_names
    from repro.workloads.profiles import PROFILES

    apps = args.apps or experiment.default_apps()
    unknown = [
        app for app in apps
        if app not in PROFILES and not is_engine_workload(app)
    ]
    if unknown:
        known = ", ".join(experiment.default_apps() + workload_names())
        print(f"{command} aborted: unknown app(s) {unknown}; choose from: "
              f"{known}")
        return None
    return apps


def _parallel(args) -> dict:
    """The campaign options of *args*, with progress printed."""
    return {"workers": args.workers, "timeout": args.timeout,
            "retries": args.retries, "cache": args.cache_dir,
            "use_cache": not args.no_cache, "progress": print}


def _run_campaigns(command, run, *args, **kwargs):
    """``run(*args, **kwargs)``, a call that runs campaigns.  Returns its
    result, or None after printing why *command* aborted: a workload
    that fails its pre-dispatch check (lint, a timed-out or dead pass
    task), or does not resolve, aborts before any simulation starts."""
    from repro.workloads.engine import WorkloadRegistryError

    try:
        return run(*args, **kwargs)
    except (experiment.WorkloadCheckError, WorkloadRegistryError) as exc:
        print(f"{command} aborted: {exc}")
        return None


def _print_problems(failures_title, *campaigns) -> tuple[int, int]:
    """Print the failed jobs (under *failures_title*) and the oracle
    violations of *campaigns* as tables; returns how many of each."""
    failures = [row for result in campaigns
                for row in results.campaign_failure_rows(result)]
    if failures:
        print(report.format_table(
            failures,
            columns=["job", "status", "attempts", "error", "dump"],
            title=failures_title,
        ))
    violations = [row for result in campaigns
                  for row in results.campaign_violation_rows(result)]
    if violations:
        print(report.format_table(
            violations,
            columns=["job", "workload", "config", "problems"],
            title="Oracle violations (dynamic run contradicted a "
                  "static bound — FATAL)",
        ))
    return len(failures), len(violations)


def _campaign(args) -> int:
    apps = _known_apps(args, "campaign")
    if apps is None:
        return 2
    if args.suite:
        from repro.workloads.suites import SuiteError, expand_suite_jobs, load_suite

        # A scenario's own `engine` key wins; --engine is the default for
        # scenarios that don't pin one.
        try:
            suite = load_suite(args.suite)
            jobs = expand_suite_jobs(suite, default_engine=args.engine)
        except SuiteError as exc:
            print(f"suite error: {exc}")
            return 2
        print(f"suite {suite.name!r}: {len(suite.scenarios)} scenario(s) "
              f"-> {len(jobs)} job(s)")
    else:
        unknown = [
            name for name in args.configs if name not in CONFIG_FACTORIES
        ]
        if unknown:
            known = ", ".join(sorted(CONFIG_FACTORIES))
            print(f"unknown config(s) {unknown}; choose from: {known}")
            return 2
        jobs = [
            experiment.CampaignJob(app, CONFIG_FACTORIES[name](), threads,
                                   scale=args.scale, engine=args.engine)
            for app in apps
            for name in args.configs
            for threads in args.threads
        ]
    if args.inject_hang:
        jobs.append(
            experiment.CampaignJob(apps[0], MMTConfig.base(),
                                   args.threads[0], scale=args.scale,
                                   tag="inject-hang", engine=args.engine)
        )
    if args.inject_livelock:
        jobs.append(
            experiment.CampaignJob(apps[0], MMTConfig.base(),
                                   args.threads[0], scale=args.scale,
                                   tag="livelock", engine=args.engine)
        )
    # A result that contradicts the static oracle fails below.
    result = _run_campaigns(
        "campaign", experiment.run_points, jobs, **_parallel(args),
        failure_dump_dir=args.dump_dir or None,
    )
    if result is None:
        return 2
    rows = []
    for outcome in result.outcomes:
        job = outcome.job
        row = {
            "app": job.app + (f"[{job.tag}]" if job.tag else ""),
            "config": job.config.name,
            "threads": job.threads,
            "status": outcome.status,
            "source": "cache" if outcome.from_cache else "run",
            "wall_s": outcome.wall_time,
            "rss_mb": (
                outcome.max_rss_bytes / (1024 * 1024)
                if outcome.max_rss_bytes else "-"
            ),
            "cycles": outcome.payload.stats.cycles if outcome.ok else "-",
            "ipc": outcome.payload.stats.ipc() if outcome.ok else "-",
        }
        rows.append(row)
    print(report.format_table(
        rows,
        columns=["app", "config", "threads", "status", "source", "wall_s",
                 "rss_mb", "cycles", "ipc"],
        title=f"Campaign — {len(jobs)} jobs",
    ))
    summary = results.summarize_campaign(result)
    print(report.format_pairs(
        [(key, f"{value:.3f}" if isinstance(value, float) else str(value))
         for key, value in summary.items()],
        title="Campaign summary",
    ))
    _, violations = _print_problems("Failed jobs (reported, not fatal)",
                                    result)
    if result.runlog_path:
        print(f"\n[campaign run-log written to {result.runlog_path}]")
    if args.json:
        results.dump_campaign(result, args.json)
        print(f"\n[campaign record written to {args.json}]")
    if violations:
        return 1
    # Partial failure is reported, not fatal; a sweep where *nothing*
    # succeeded is an error for scripting purposes.
    return 0 if (not jobs or result.completed) else 1


# ----------------------------------------------------------------- figures
def _figures(args) -> int:
    """Regenerate figures, tables and sweeps: one with ``repro <target>``,
    every one of ``figures.FIGURES`` with ``repro reproduce``, which then
    checks the paper's claims on them.  ``figures.run_figures`` runs the
    targets' points as one campaign, and Figures 1 and 2's sharing
    profiles as another, and computes the rows from their results; a
    failed point or an oracle violation exits 1 with no figure printed,
    so every figure printed comes from results the gate accepted."""
    command = args.target
    reproduce = command == "reproduce"
    targets = list(figures.FIGURES) if reproduce else [command]
    apps = _known_apps(args, command)
    if apps is None:
        return 2
    run = _run_campaigns(
        command, figures.run_figures, targets, apps, args.scale,
        engine=args.engine, **_parallel(args),
    )
    if run is None:
        return 2
    summary = []
    if run.points is not None:
        summary.append(
            f"{run.points.jobs} points ({run.points.cache_hits} from the "
            f"cache): pass {run.points.pass_wall_time:.1f}s, campaign "
            f"{run.points.wall_time:.1f}s"
        )
    if run.sharing is not None:
        summary.append(f"{run.sharing.jobs} sharing profiles")
    if summary:
        print("\n" + "; ".join(summary))
    _print_problems("Failed jobs", *run.campaigns)
    if run.rows is None:
        return 1
    rows = run.rows
    print(("\n" if run.campaigns else "") + "\n\n".join(
        figures.FIGURES[target].render(rows[target]) for target in targets
    ))
    claims = None
    if reproduce and set(experiment.default_apps()) <= set(apps):
        claims = [{"figure": figure, "claim": claim, "holds": holds}
                  for figure, claim, holds in figures.paper_claims(rows)]
        print("\n" + report.format_table(
            [{**claim, "holds": "yes" if claim["holds"] else "NO"}
             for claim in claims],
            columns=["figure", "claim", "holds"], title="Paper claims",
        ))
    elif reproduce:
        print("\npaper claims not checked: they are stated over all "
              "sixteen paper apps")
    if args.json:
        results.dump_figure(
            command, rows if reproduce else rows[command], args.json,
            scale=args.scale, extra={"claims": claims} if reproduce else None,
        )
        print(f"\n[rows written to {args.json}]")
    return 0 if all(claim["holds"] for claim in claims or ()) else 1


# ----------------------------------------------------------------- profile
def _profile(args) -> int:
    """Host self-profile of one point: where does the wall-clock go?"""
    point = _point(args)
    if point is None:
        return 2
    app, config, threads = point
    stats, prof = experiment.profile_run(
        app, config, threads, scale=args.scale, engine=args.engine,
        record_slices=bool(args.chrome),
    )
    rows = [
        {
            "region": row["region"],
            "calls": row["calls"],
            "self_ms": row["self_s"] * 1e3,
            "share": row["share"],
        }
        for row in prof.report_rows()
    ]
    print(report.format_table(
        rows,
        columns=["region", "calls", "self_ms", "share"],
        title=(f"Host profile — {app}/{config.name}/{threads}t, "
               f"engine {args.engine}"),
    ))
    committed = stats.committed_thread_insts
    pairs = [
        ("wall_s", f"{prof.total_wall:.3f}"),
        ("cycles", str(stats.cycles)),
        ("committed_insts", str(committed)),
        ("host_us_per_inst",
         f"{prof.total_wall * 1e6 / committed:.3f}" if committed else "-"),
        ("sim_cycles_per_host_s",
         f"{stats.cycles / prof.total_wall:.0f}" if prof.total_wall else "-"),
    ]
    print(report.format_pairs(pairs, title="Host totals"))
    if args.json:
        document = prof.as_dict()
        document.update(
            {"app": app, "config": config.name, "threads": threads,
             "scale": args.scale, "engine": args.engine,
             "cycles": stats.cycles, "committed_insts": committed}
        )
        Path(args.json).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
        print(f"[host profile written to {args.json}]")
    if args.chrome:
        prof.write_chrome_trace(args.chrome)
        print(f"[Chrome trace for Perfetto written to {args.chrome}]")
    return 0


# ------------------------------------------------------------------ replay
def _replay(args) -> int:
    """Post-mortem: re-run the point recorded in a flight dump."""
    if not args.dump:
        print("replay requires --dump PATH (a flight-recorder dump)")
        return 2
    try:
        replay = experiment.replay_dump(args.dump, interval=args.interval)
    except (OSError, ValueError) as exc:
        print(f"replay failed: {exc}")
        return 2
    spec = replay.spec
    print(f"replaying {spec['app']}/{spec['config']}/{spec['threads']}t "
          f"(scale {spec.get('scale', 1.0)}, engine "
          f"{spec.get('engine', 'reference')}) from {args.dump}")
    original = replay.dump.get("error")
    if original:
        print(f"original failure: {original}")
    stats = replay.run.stats
    print(f"replay finished: {stats.cycles} cycles, IPC {stats.ipc():.3f}")
    if replay.problems:
        print("REPLAY VALIDATION FAILED:")
        for line in replay.problems:
            print(f"  {line}")
        return 1
    print("replay clean — oracle bounds hold and interval sums reconcile "
          "exactly")
    return 0


def _record(args) -> int:
    """Record per-thread commit streams from one reference-core run and
    save them as a replayable trace workload (``trace:PATH``)."""
    from repro.workloads.record import record_trace

    point = _point(args)
    if point is None:
        return 2
    app, config, threads = point
    if config.limit_identical:
        print("cannot record under the Limit study (identical clones "
              "carry no per-thread structure); pick a real config")
        return 2
    out = args.out or f"{app}-{config.name}-{threads}t.trace.json"
    trace = record_trace(
        app, config, threads, scale=args.scale, window=args.window
    )
    path = trace.save(out)
    lengths = ", ".join(str(len(s)) for s in trace.tokens)
    print(f"recorded {app}/{config.name}/{threads}t (scale {args.scale}): "
          f"{trace.window_count} distinct {trace.window}-PC windows, "
          f"tokens per context: {lengths}")
    print(f"trace written to {path}")
    print(f"digest: {trace.digest()}")
    print(f"replay it with workload name 'trace:{path}' — e.g.\n"
          f"  [[scenario]]\n"
          f"  workload = \"trace:{path}\"\n"
          f"  threads = [{threads}]\n"
          f"in a scenario suite, or via repro analyze --apps trace:{path}")
    return 0


#: The tool commands of ``repro``: name -> (handler, ``list`` line).  The
#: figures and tables are the targets of ``figures.FIGURES``.
COMMANDS = {
    "campaign": (_campaign, "parallel batch sweep with result caching"),
    "reproduce": (_figures, "every target's points as one campaign, then "
                  "every target and the paper's claims"),
    "trace": (_trace, "one observed run: events, interval metrics, Perfetto "
              "export"),
    "profile": (_profile, "host self-profile: wall-clock by rare-path region"),
    "record": (_record, "record per-thread commit streams into a replayable "
               "trace workload"),
    "replay": (_replay, "re-run a flight dump under the oracle gate"),
    "analyze": (_analyze, "static workload lint + redundancy oracle bounds"),
    "selfcheck": (_selfcheck, "host self-analysis: drift check + determinism "
                  "lint"),
}


def _argtype(check, parse):
    """An argparse ``type``: the flag's text parsed by *parse*, then held
    to *check*, the check a scenario suite makes of the same value, so a
    value out of range is a usage error (exit 2)."""
    def convert(text: str):
        value = parse(text)  # a ValueError here: argparse's "invalid int"
        try:
            return check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    convert.__name__ = parse.__name__
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures of the MMT paper (MICRO 2010).",
    )
    parser.add_argument(
        "target",
        choices=[*figures.FIGURES, "list", *COMMANDS],
        help="the figure, table or sweep to regenerate, or the tool command to "
        "run ('list' describes each)",
    )
    parser.add_argument(
        "--scale",
        type=_argtype(check_scale, float),
        default=1.0,
        help="workload scale factor (default 1.0 = calibrated size)",
    )
    parser.add_argument(
        "--apps",
        nargs="+",
        default=None,
        help="restrict to these applications (default: all sixteen)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="additionally dump the figure's data rows as JSON to PATH",
    )
    parser.add_argument(
        "--engine",
        default=None,
        help="simulation core: 'reference' (the proven SMTCore) or 'fast' "
        "(the cycle-exact fast-path twin, see docs/fast-path.md); applies "
        "to figures, campaign jobs, traced and profiled runs (default: "
        "reference, except 'profile' which defaults to fast)",
    )
    parallel = parser.add_argument_group("parallel execution")
    parallel.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes of the campaigns that run the simulations "
        "(default: every CPU this process may run on)",
    )
    parallel.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job timeout in seconds (timed-out jobs are retried, "
        "then reported)",
    )
    parallel.add_argument(
        "--retries",
        type=int,
        default=1,
        help="extra attempts for failed or hung jobs (default 1)",
    )
    parallel.add_argument(
        "--cache-dir",
        default=None,
        help="campaign result cache directory (default .repro-cache, or "
        "$REPRO_CACHE_DIR)",
    )
    parallel.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    campaign = parser.add_argument_group("campaign target")
    campaign.add_argument(
        "--configs",
        nargs="+",
        default=["Base", "MMT-FXR"],
        help=f"configurations to sweep ({', '.join(CONFIG_FACTORIES)})",
    )
    campaign.add_argument(
        "--threads",
        type=_argtype(check_threads, int),
        nargs="+",
        default=[2],
        help="hardware thread counts to sweep (default: 2)",
    )
    campaign.add_argument(
        "--inject-hang",
        action="store_true",
        help="append one deliberately hanging job (timeout/retry demo)",
    )
    campaign.add_argument(
        "--inject-livelock",
        action="store_true",
        help="append one livelocked job (watchdog + flight-dump demo)",
    )
    campaign.add_argument(
        "--dump-dir",
        default=".repro-flight",
        metavar="DIR",
        help="directory for flight-recorder dumps of failed/hung jobs "
        "(default .repro-flight; pass '' to disable)",
    )
    campaign.add_argument(
        "--suite",
        metavar="PATH",
        default=None,
        help="run the scenario suite declared in PATH (scenarios/*.toml) "
        "instead of the --apps/--configs/--threads cross product; "
        "scenario 'engine' keys win over --engine",
    )
    analyze = parser.add_argument_group("analyze target")
    analyze.add_argument(
        "--all-workloads",
        action="store_true",
        help="analyze every built-in app plus every registry workload",
    )
    analyze.add_argument(
        "--values",
        action="store_true",
        help="include value-level oracle columns (static LVIP hit-rate "
        "upper bound, weighted must-identical load fraction, widened "
        "loop-header count)",
    )
    analyze.add_argument(
        "--suppress",
        nargs="*",
        default=None,
        metavar="RULE",
        help="lint rule ids to suppress (see docs/static-analysis.md)",
    )
    trace = parser.add_argument_group("trace target")
    trace.add_argument(
        "--config",
        default="MMT-FXR",
        help="configuration for the traced run (default MMT-FXR)",
    )
    trace.add_argument(
        "--interval",
        type=int,
        default=1000,
        help="interval-metrics sampling period in cycles (default 1000)",
    )
    trace.add_argument(
        "--chrome",
        metavar="PATH",
        default=None,
        help="write a Chrome trace_event JSON (Perfetto-loadable) to PATH",
    )
    selfcheck = parser.add_argument_group("selfcheck target")
    selfcheck.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="accepted-findings baseline: findings pinned there do not "
        "fail the gate (missing file = empty baseline)",
    )
    selfcheck.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the current findings to --baseline and exit 0",
    )
    selfcheck.add_argument(
        "--root",
        metavar="DIR",
        default=None,
        help="src/ root to analyze (default: the installed package's own "
        "source tree)",
    )
    replay = parser.add_argument_group("replay target")
    replay.add_argument(
        "--dump",
        metavar="PATH",
        default=None,
        help="flight-recorder dump to replay (written to --dump-dir by a "
        "failed campaign job)",
    )
    record = parser.add_argument_group("record target")
    record.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="where to write the recorded trace (default "
        "<app>-<config>-<threads>t.trace.json)",
    )
    record.add_argument(
        "--window",
        type=int,
        default=32,
        help="committed-PC window length per trace token (default 32)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The self-profiler exists to explain fast-loop wall-clock, so
    # `profile` defaults to the fast engine; everything else stays on
    # the reference core unless asked.
    if args.engine is None:
        args.engine = "fast" if args.target == "profile" else "reference"
    try:
        resolve_engine(args.engine)
    except ValueError as exc:
        # resolve_engine's message already lists the registry keys.
        print(f"error: {exc}")
        return 2
    if args.target == "list":
        entries = [(name, figure.description)
                   for name, figure in figures.FIGURES.items()]
        entries += [(name, description)
                    for name, (_, description) in COMMANDS.items()]
        width = max(len(name) for name, _ in entries)
        for name, description in entries:
            print(f"{name.ljust(width)}  {description}")
        return 0
    if args.target in COMMANDS:
        return COMMANDS[args.target][0](args)
    return _figures(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
