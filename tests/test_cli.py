"""The `python -m repro` command-line interface."""

import json

import pytest

from repro.harness.cli import COMMANDS, build_parser, main
from repro.harness.figures import FIGURES


def test_list_target(capsys):
    """`list` names every figure, table and tool command once, with the
    descriptions in one aligned column."""
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [*FIGURES, *COMMANDS]
    assert [line.split()[0] for line in lines] == names
    width = max(len(name) for name in names)
    assert all(line[width:width + 2] == "  " and line[width + 2] != " "
               for line in lines)


def test_every_figure_has_a_handler_and_description():
    for figure in FIGURES.values():
        assert callable(figure.rows) and callable(figure.layout)
        assert figure.description and figure.title
    for handler, description in COMMANDS.values():
        assert callable(handler)
        assert description


def test_figure_rows_are_computed_once_for_report_and_json(
    capsys, tmp_path, monkeypatch
):
    """With --json a figure's rows are computed once; the dump holds the
    rows the report printed."""
    table3 = FIGURES["table3"]
    calls = []

    def rows(results, series, apps):
        calls.append(apps)
        return table3.rows(results, series, apps)

    monkeypatch.setitem(FIGURES, "table3", table3._replace(rows=rows))
    path = tmp_path / "table3.json"
    assert main(["table3", "--json", str(path)]) == 0
    assert len(calls) == 1
    assert "LVIP" in capsys.readouterr().out
    document = json.loads(path.read_text())
    assert document["figure"] == "table3"
    assert document["rows"] == table3.compute()


def test_tables_render(capsys):
    for target in ("table3", "table4", "table5"):
        assert main([target]) == 0
    out = capsys.readouterr().out
    assert "LVIP" in out
    assert "ROB Size" in out
    assert "Traditional SMT" in out


def test_fig1_with_app_subset(capsys, tmp_path):
    assert main(["fig1", "--apps", "ammp", "lu", "--scale", "0.25",
                 "--workers", "2", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "ammp" in out and "lu" in out and "average" in out
    assert "twolf" not in out


def test_fig5a_with_app_subset(capsys, tmp_path):
    assert main(["fig5a", "--apps", "ammp", "--scale", "0.25",
                 "--workers", "2", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "MMT-FXR" in out and "geomean" in out


def test_unknown_target_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig99"])


def test_scale_argument_parsed():
    args = build_parser().parse_args(["fig1", "--scale", "0.5"])
    assert args.scale == 0.5
    assert args.apps is None


def test_trace_target(capsys, tmp_path):
    chrome = tmp_path / "trace.json"
    rows = tmp_path / "rows.json"
    assert main(["trace", "--apps", "ammp", "--config", "MMT-FXR",
                 "--scale", "0.1", "--interval", "200",
                 "--chrome", str(chrome), "--json", str(rows)]) == 0
    out = capsys.readouterr().out
    assert "reconcile exactly" in out
    assert "commit" in out  # event tally printed
    assert chrome.exists() and rows.exists()

    from repro.obs import load_chrome_trace, validate_chrome_trace

    assert validate_chrome_trace(load_chrome_trace(chrome)) == []


def test_trace_rejects_unknown_config(capsys):
    assert main(["trace", "--apps", "ammp", "--config", "NoSuch"]) == 2
    assert "unknown config" in capsys.readouterr().out


def test_campaign_flags_parsed():
    args = build_parser().parse_args(
        ["campaign", "--inject-livelock", "--dump-dir", "dumps"])
    assert args.inject_livelock and args.dump_dir == "dumps"
    assert build_parser().parse_args(["campaign"]).dump_dir == ".repro-flight"


def test_trace_flags_parsed():
    args = build_parser().parse_args(["trace", "--interval", "500"])
    assert args.interval == 500 and args.config == "MMT-FXR"
    assert args.chrome is None


def test_profile_target(capsys, tmp_path):
    chrome = tmp_path / "host.json"
    out_json = tmp_path / "profile.json"
    assert main(["profile", "--apps", "mcf", "--config", "MMT-FXR",
                 "--scale", "0.1", "--chrome", str(chrome),
                 "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "Host profile" in out
    assert "fast_loop" in out  # residual row printed
    assert "control" in out
    assert "host_us_per_inst" in out
    assert chrome.exists() and out_json.exists()

    import json

    from repro.obs import load_chrome_trace, validate_chrome_trace

    assert validate_chrome_trace(load_chrome_trace(chrome)) == []
    document = json.loads(out_json.read_text())
    # The profile target defaults to the fast engine.
    assert document["engine"] == "fast"
    assert document["total_wall_s"] > 0


def test_profile_rejects_unknown_config(capsys):
    assert main(["profile", "--apps", "mcf", "--config", "NoSuch"]) == 2
    assert "unknown config" in capsys.readouterr().out


def test_replay_target_roundtrip(capsys, tmp_path, monkeypatch):
    """campaign --inject-livelock leaves a dump; replay re-runs it."""
    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "clitest")
    import repro.harness.campaign as campaign_mod

    monkeypatch.setattr(campaign_mod, "_FINGERPRINT", None)
    dump_dir = tmp_path / "flight"
    code = main(["campaign", "--apps", "ammp", "--configs", "Base",
                 "--scale", "0.1", "--workers", "1", "--retries", "0",
                 "--inject-livelock", "--dump-dir", str(dump_dir),
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == 0  # partial failure reported, not fatal
    out = capsys.readouterr().out
    assert "campaign run-log written to" in out
    dumps = list(dump_dir.glob("*.flight.json"))
    assert dumps, "livelock demo left no flight dump"

    assert main(["replay", "--dump", str(dumps[0])]) == 0
    out = capsys.readouterr().out
    assert "original failure" in out
    assert "no instruction committed" in out
    assert "replay clean" in out


def test_injected_demo_jobs_run_on_the_chosen_engine(capsys, tmp_path):
    """--inject-livelock appends its job on the --engine engine, so the
    flight dump it leaves names that engine."""
    dump_dir = tmp_path / "flight"
    code = main(["campaign", "--engine", "fast", "--apps", "ammp",
                 "--configs", "Base", "--scale", "0.1", "--workers", "2",
                 "--retries", "0", "--inject-livelock",
                 "--dump-dir", str(dump_dir),
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == 0  # partial failure reported, not fatal
    dumps = list(dump_dir.glob("*.flight.json"))
    assert len(dumps) == 1
    assert json.loads(dumps[0].read_text())["job"]["engine"] == "fast"


def _truncated_trace(tmp_path):
    path = tmp_path / "cut.trace.json"
    path.write_text('{"format_version": 1, "app": "mcf", "thr')
    return f"trace:{path}"


@pytest.mark.parametrize("app", ["nosuchapp", "truncated-trace"])
def test_campaign_with_an_unresolvable_app_aborts(capsys, tmp_path, app):
    """A name that resolves to no workload aborts the campaign with a
    message and exit 2, and no result is stored."""
    if app == "truncated-trace":
        app = _truncated_trace(tmp_path)
    cache = tmp_path / "cache"
    assert main(["campaign", "--apps", app, "--configs", "Base",
                 "--threads", "2", "--scale", "0.1", "--workers", "1",
                 "--cache-dir", str(cache), "--dump-dir", ""]) == 2
    out = capsys.readouterr().out
    assert "campaign aborted: " in out and "Traceback" not in out
    assert not [path for path in cache.rglob("*") if path.is_file()]


def test_analyze_with_an_unresolvable_app_is_exit_2(capsys, tmp_path):
    assert main(["analyze", "--apps", _truncated_trace(tmp_path),
                 "--threads", "2"]) == 2
    assert "error: workload 'trace:" in capsys.readouterr().out


def test_inject_hang_times_out_and_the_sweep_goes_on(capsys, tmp_path):
    """campaign --inject-hang: the tagged job sleeps until its timeout
    kills it and is reported; the healthy job completes."""
    code = main(["campaign", "--apps", "ammp", "--configs", "Base",
                 "--scale", "0.1", "--workers", "2", "--timeout", "2",
                 "--retries", "0", "--inject-hang",
                 "--cache-dir", str(tmp_path), "--dump-dir", ""])
    assert code == 0  # partial failure reported, not fatal
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [(row[0], row[3]) for row in rows
            if len(row) > 3 and row[1] == "Base"] == [
        ("ammp", "ok"), ("ammp[inject-hang]", "timeout"),
    ]


def test_campaign_and_figure_prefetch_share_cache_entries(capsys, tmp_path,
                                                        monkeypatch):
    """`repro campaign` and a figure target run one path with one
    runner, so a point has one cache key whichever command ran it: the
    sweep's 8 points are Fig 6's for these apps, all served and
    validated from the cache."""
    from repro.harness import experiment

    cache = tmp_path / "cache"
    assert main(["campaign", "--apps", "ammp", "lu", "--configs", "Base",
                 "MMT-FXR", "--threads", "2", "4", "--scale", "0.1",
                 "--workers", "2", "--cache-dir", str(cache),
                 "--dump-dir", ""]) == 0
    capsys.readouterr()
    campaigns = []
    _spy(monkeypatch, experiment, "validate_campaign_result", campaigns)
    assert main(["fig6", "--apps", "ammp", "lu", "--scale", "0.1",
                 "--workers", "2", "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert out.count("] hit ") == 8
    assert "8 points (8 from the cache)" in out
    ((result,),) = campaigns
    assert all(o.ok and o.from_cache for o in result.outcomes)
    assert result.validation_failures == []


def test_replay_without_dump_is_usage_error(capsys):
    assert main(["replay"]) == 2
    assert "--dump" in capsys.readouterr().out


def test_replay_rejects_spec_less_dump(capsys, tmp_path):
    import json

    path = tmp_path / "old.flight.json"
    path.write_text(json.dumps({"events": [], "error": "boom"}))
    assert main(["replay", "--dump", str(path)]) == 2
    assert "no job spec" in capsys.readouterr().out


# ------------------------------------------------------- record + suites
def test_record_target_roundtrip(capsys, tmp_path):
    """repro record writes a trace that resolves as a trace: workload."""
    out_path = tmp_path / "rec.trace.json"
    assert main(["record", "--apps", "mcf", "--config", "Base",
                 "--threads", "2", "--scale", "0.05", "--window", "16",
                 "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "digest:" in out
    assert f"trace:{out_path}" in out
    assert out_path.exists()

    from repro.workloads.engine import get_workload
    from repro.workloads.record import RecordedTrace

    trace = RecordedTrace.load(out_path)
    assert trace.digest() in out
    workload = get_workload(f"trace:{out_path}")
    build = workload.build(2)
    assert build.nctx == 2


def test_record_rejects_unknown_config(capsys):
    assert main(["record", "--apps", "mcf", "--config", "Nope"]) == 2
    assert "unknown config" in capsys.readouterr().out


def test_record_rejects_limit_config(capsys):
    assert main(["record", "--apps", "mcf", "--config", "Limit"]) == 2
    assert "Limit" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["trace", "profile", "record"])
@pytest.mark.parametrize("app", ["nosuchapp", "truncated-trace"])
def test_one_point_commands_reject_an_unresolvable_app(capsys, tmp_path,
                                                       command, app):
    """trace, profile and record resolve their point once: a name that
    resolves to no workload is an error message and exit 2."""
    if app == "truncated-trace":
        app = _truncated_trace(tmp_path)
    assert main([command, "--apps", app, "--scale", "0.05",
                 "--out", str(tmp_path / "out.trace.json")]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and "Traceback" not in out


def test_record_builds_a_registry_workload(capsys, tmp_path):
    """record builds its point as every harness path does, so registry
    workloads record too."""
    out_path = tmp_path / "bursty.trace.json"
    assert main(["record", "--apps", "dyn-bursty", "--threads", "2",
                 "--scale", "0.05", "--out", str(out_path)]) == 0
    assert "recorded dyn-bursty/MMT-FXR/2t" in capsys.readouterr().out
    assert out_path.exists()


def test_campaign_suite_smoke(capsys, tmp_path, monkeypatch):
    """campaign --suite expands and runs a scenario suite end-to-end."""
    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "clitest3")
    import repro.harness.campaign as campaign_mod

    monkeypatch.setattr(campaign_mod, "_FINGERPRINT", None)
    suite = tmp_path / "mini.toml"
    suite.write_text(
        "[suite]\nname = 'mini'\n"
        "[[scenario]]\nworkload = 'dyn-bursty'\n"
        "configs = ['Base']\nthreads = [2]\nscale = 0.25\nseed = 4\n"
    )
    assert main(["campaign", "--suite", str(suite), "--workers", "1",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--dump-dir", ""]) == 0
    out = capsys.readouterr().out
    assert "suite 'mini': 1 scenario(s) -> 1 job(s)" in out
    assert "dyn-bursty" in out


def test_campaign_suite_malformed_is_exit_2(capsys, tmp_path):
    suite = tmp_path / "broken.toml"
    suite.write_text("this is [not toml\n")
    assert main(["campaign", "--suite", str(suite)]) == 2
    out = capsys.readouterr().out
    assert "suite error" in out
    assert "not valid TOML" in out
    assert "Traceback" not in out


def test_campaign_suite_missing_file_is_exit_2(capsys, tmp_path):
    assert main(["campaign", "--suite", str(tmp_path / "gone.toml")]) == 2
    assert "suite error" in capsys.readouterr().out


def test_campaign_suite_engine_interaction(tmp_path, monkeypatch):
    """Scenario `engine` keys win; explicit --engine is the default for
    scenarios without one; implicit default stays 'reference'."""
    import repro.harness.cli as cli_mod

    suite = tmp_path / "mix.toml"
    suite.write_text(
        "[[scenario]]\nworkload = 'dyn-bursty'\nengine = 'reference'\n"
        "[[scenario]]\nworkload = 'dyn-decohere'\n"
    )
    captured = {}

    def fake_run_campaign(jobs, runner, **kwargs):
        captured["jobs"] = list(jobs)
        raise SystemExit(0)  # stop before simulating anything

    monkeypatch.setattr(
        cli_mod.experiment, "run_campaign", fake_run_campaign
    )
    monkeypatch.setattr(
        cli_mod.experiment, "lint_campaign_jobs",
        lambda jobs, **kwargs: 0,
    )

    with pytest.raises(SystemExit):
        main(["campaign", "--suite", str(suite), "--engine", "fast"])
    engines = [job.engine for job in captured["jobs"]]
    assert engines == ["reference", "fast"]  # pinned wins, rest default

    with pytest.raises(SystemExit):
        main(["campaign", "--suite", str(suite)])
    engines = [job.engine for job in captured["jobs"]]
    assert engines == ["reference", "reference"]


def test_analyze_accepts_registry_and_trace_workloads(capsys, tmp_path):
    out_path = tmp_path / "t.trace.json"
    assert main(["record", "--apps", "mcf", "--config", "Base",
                 "--threads", "2", "--scale", "0.05",
                 "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--apps", "dyn-bursty", f"trace:{out_path}",
                 "--threads", "2", "--scale", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "dyn-bursty/2t" in out
    assert "all workloads lint clean" in out


def test_campaign_runs_the_message_passing_workloads(capsys, tmp_path):
    """mp-ring and mp-pairs are registry workloads: a campaign runs them
    at two and four ranks, and every result passes its oracle."""
    assert main(["campaign", "--apps", "mp-ring", "mp-pairs", "--configs",
                 "Base", "MMT-FXR", "--threads", "2", "4", "--scale", "0.1",
                 "--workers", "2", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Campaign — 8 jobs" in out
    assert "VIOLATION" not in out and "Oracle violations" not in out


def test_analyze_all_workloads_includes_registry(capsys):
    assert main(["analyze", "--all-workloads", "--threads", "2",
                 "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "dyn-bursty/2t" in out
    assert "reqstream-uniform/2t" in out
    assert "mp-ring/2t" in out  # the pre-existing patterns survive


def test_analyze_all_workloads_skips_rank_counts_a_pattern_refuses(capsys):
    """mp-pairs needs an even rank count, so at three threads it is left
    out, as registry workloads leave out counts they refuse."""
    assert main(["analyze", "--all-workloads", "--threads", "3",
                 "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "mp-ring/3t" in out
    assert "mp-pairs/3t" not in out


# ---------------------------------------------------------------- engine
def test_unknown_engine_is_exit_2_with_registry_listing(capsys):
    """--engine routes through resolve_engine; its error must surface the
    known engine names instead of an argparse usage dump."""
    assert main(["fig5a", "--engine", "warp9"]) == 2
    out = capsys.readouterr().out
    assert "unknown engine 'warp9'" in out
    assert "'fast'" in out and "'reference'" in out


# --------------------------------------------------------------- reproduce
def _spy(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


def test_reproduce_prints_every_figure_from_one_campaign(capsys, tmp_path,
                                                         monkeypatch):
    """reproduce runs the union of every figure's points once, as one
    campaign, then prints each figure and table from its results without
    a serial simulation; its JSON holds each target's rows as
    ``repro <target> --json`` writes them.  Over two apps no claim is
    checked."""
    from repro.harness import experiment, figures, results

    apps, scale = ["ammp", "lu"], 0.05
    campaigns, simulations = [], []
    _spy(monkeypatch, experiment, "run_points", campaigns)
    _spy(monkeypatch, experiment, "_simulate", simulations)
    document = tmp_path / "reproduce.json"
    assert main(["reproduce", "--apps", *apps, "--scale", str(scale),
                 "--workers", "2", "--cache-dir", str(tmp_path / "cache"),
                 "--json", str(document)]) == 0
    out = capsys.readouterr().out
    union = dict.fromkeys(point for target in FIGURES
                          for point in figures.figure_points(target, apps,
                                                             scale))
    assert [list(points) for points, in campaigns] == [list(union)]
    # 56 paper points over the two apps, and the sweeps' 68 over their
    # own apps, of which ammp's 2T Base and MMT-FXR are fig5a's.
    assert len(union) == 56 + 68 - 2
    assert simulations == []
    assert all(out.count(figure.title) == 1 for figure in FIGURES.values())
    assert "paper claims not checked" in out
    dumped = results.load_figure(document)
    assert dumped["claims"] is None
    for target, figure in FIGURES.items():
        (rows,) = figures.run_figures(
            [target], apps, scale, workers=2, cache=tmp_path / "cache",
        ).rows.values()
        path = results.dump_figure(target, rows,
                                   tmp_path / f"{target}.json", scale=scale)
        assert dumped["rows"][target] == results.load_figure(path)["rows"]
        assert figure.render(rows) in out


def test_reproduce_fails_when_a_paper_claim_fails(capsys, tmp_path,
                                                  monkeypatch):
    """Over all the paper's apps (here, the one app the paper is made
    of) reproduce checks the claims; one that does not hold is a NO in
    its table and exit 1."""
    from repro.harness import experiment, figures

    monkeypatch.setattr(experiment, "default_apps", lambda: ["ammp"])
    monkeypatch.setattr(figures, "paper_claims", lambda rows: [
        ("fig5a", f"geomean MMT-FXR {rows['fig5a'][-1]['MMT-FXR']:.3f} "
         "> 9.0", False),
        ("table5", "five configurations", True),
    ])
    assert main(["reproduce", "--apps", "ammp", "--scale", "0.05",
                 "--workers", "2", "--cache-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    claims = out[out.index("Paper claims"):].splitlines()
    assert [line.split()[-1] for line in claims[4:6]] == ["NO", "yes"]


@pytest.mark.parametrize("app", ["nosuchapp", "truncated-trace"])
def test_reproduce_with_an_unresolvable_app_aborts(capsys, tmp_path, app):
    """As in campaign: a name that resolves to no workload aborts before
    any simulation, with a message and exit 2."""
    if app == "truncated-trace":
        app = _truncated_trace(tmp_path)
    assert main(["reproduce", "--apps", app, "--scale", "0.05",
                 "--workers", "1", "--cache-dir", str(tmp_path / "c")]) == 2
    out = capsys.readouterr().out
    assert "reproduce aborted: " in out and "Traceback" not in out


# ------------------------------------------------------ one figure path
def _fig5a(tmp_path, *extra):
    return main(["fig5a", "--apps", "ammp", "lu", "--scale", "0.05",
                 "--workers", "2", "--cache-dir", str(tmp_path / "cache"),
                 *extra])


def test_a_figure_target_runs_as_a_validated_campaign(capsys, tmp_path):
    """`repro <figure>` runs its points as one campaign; run again on
    the same cache, every point is served from it and still validated,
    and the figure is the same."""
    assert _fig5a(tmp_path) == 0
    first = capsys.readouterr().out
    assert "10 points (0 from the cache)" in first
    assert _fig5a(tmp_path) == 0
    second = capsys.readouterr().out
    assert "10 points (10 from the cache)" in second
    assert second.count("] hit ") == 10
    title = FIGURES["fig5a"].title
    assert first[first.index(title):] == second[second.index(title):]


def test_a_figure_with_a_failed_point_exits_1_and_prints_no_figure(
    capsys, tmp_path, monkeypatch
):
    import functools

    from repro.harness import experiment

    real = experiment.simulate_job

    @functools.wraps(real)  # the same runner id, so the same cache keys
    def fail_lu(job, seed):
        if job.app == "lu":
            raise RuntimeError("injected failure")
        return real(job, seed)

    monkeypatch.setattr(experiment, "simulate_job", fail_lu)
    assert _fig5a(tmp_path, "--retries", "0") == 1
    out = capsys.readouterr().out
    assert "Failed jobs" in out and "injected failure" in out
    assert FIGURES["fig5a"].title not in out


def test_a_figure_with_an_oracle_violation_exits_1(capsys, tmp_path,
                                                   monkeypatch):
    from repro.analysis.redundancy import OracleReport

    validate = OracleReport.validate_against

    def contradicted(report, stats):
        return validate(report, stats) + ["injected contradiction"]

    monkeypatch.setattr(OracleReport, "validate_against", contradicted)
    assert _fig5a(tmp_path) == 1
    out = capsys.readouterr().out
    assert "Oracle violations" in out and "injected contradiction" in out
    assert FIGURES["fig5a"].title not in out


@pytest.mark.parametrize("target", ["fig1", "fig5a", "fig7b"])
def test_a_figure_with_an_unknown_app_aborts(capsys, tmp_path, target):
    assert main([target, "--apps", "nosuch", "--cache-dir",
                 str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"{target} aborted: unknown app(s) ['nosuch']")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["trace", "--threads"], ["profile", "--threads"], ["record", "--threads"],
    ["campaign", "--threads"], ["campaign", "--configs"],
    ["campaign", "--apps", "--configs", "Base", "--threads", "2"],
    ["fig5a", "--apps"], ["reproduce", "--apps"], ["analyze", "--apps"],
])
def test_a_sweep_flag_without_a_value_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "expected at least one argument" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["campaign", "--threads", "0"], "a thread count must be an int in 1..4"),
    (["campaign", "--threads", "2", "9"], "a thread count must be an int"),
    (["trace", "--threads", "5"], "a thread count must be an int"),
    (["campaign", "--scale", "0"], "a workload scale must be a positive"),
    (["campaign", "--scale", "-1"], "a workload scale must be a positive"),
    (["fig5a", "--scale", "0"], "a workload scale must be a positive"),
])
def test_a_flag_outside_the_suite_range_is_a_usage_error(capsys, monkeypatch,
                                                        argv, message):
    """--threads and --scale are held to the checks a scenario suite
    makes of the same values: a bad value is exit 2 before anything
    builds."""
    from repro.harness import experiment

    monkeypatch.setattr(experiment, "build_point", _refuse_to_build)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def _refuse_to_build(*args, **kwargs):
    raise AssertionError("a workload was built")


@pytest.mark.parametrize("command", ["campaign", "fig5a"])
def test_a_pass_task_that_times_out_aborts_the_command(capsys, tmp_path,
                                                      command):
    """A pre-dispatch check that times out aborts the command with a
    message and exit 2, as a lint failure does; nothing is simulated."""
    assert main([command, "--apps", "ammp", "--scale", "1.0", "--timeout",
                 "0.01", "--workers", "1", "--retries", "0",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--dump-dir", ""]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"{command} aborted: pre-dispatch check of "
                          "workload ammp/2t failed: timed out after 0.01s")
    assert "Traceback" not in out


def test_the_engine_flag_does_not_outlive_its_command(tmp_path):
    """--engine picks the engine of the command it is given; a later
    figure in the same process runs on the reference engine."""
    from repro.harness import figures

    assert main(["table3", "--engine", "fast"]) == 0
    assert main(["fig6", "--apps", "ammp", "--scale", "0.05", "--engine",
                 "fast", "--workers", "2", "--cache-dir",
                 str(tmp_path)]) == 0
    jobs = figures.figure_points("fig6")
    assert jobs and {job.engine for job in jobs} == {"reference"}


def test_a_closed_pipe_ends_the_run_quietly(tmp_path):
    """A reader that stops early (``| head``) ends the run without a
    traceback, and neither a worker nor the spool outlives it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": "1",
           "TMPDIR": str(tmp_path)}
    cache = str(tmp_path / "cache")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "fig6", "--apps", "ammp", "--scale",
         "0.05", "--workers", "2", "--no-cache", "--cache-dir", cache],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    for line in proc.stdout:  # hang up once the first point is done
        if line.startswith(b"["):
            break
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in stderr, stderr
    assert not list(tmp_path.glob("repro-spool-*"))
    proc_root = Path("/proc")
    if proc_root.is_dir():  # the workers are forks: they share our argv
        left = []
        for entry in proc_root.iterdir():
            try:
                if cache in (entry / "cmdline").read_bytes().decode():
                    left.append(entry.name)
            except (OSError, UnicodeDecodeError):
                continue
        assert left == []
