"""Every generated workload must lint clean and yield sane oracle bounds.

This is the satellite gate of the static-analysis issue: the linter runs
over every program the workload generators can emit (all sixteen app
profiles at several thread counts, with and without remerge hints, plus
both message-passing patterns), so a generator regression — a branch past
the image end, a dead block, an undefined register read — fails here in
milliseconds instead of corrupting a simulation campaign.
"""

from pathlib import Path

import pytest

from repro.analysis.lint import lint_program
from repro.analysis.redundancy import analyze_build
from repro.core.config import WorkloadType
from repro.workloads.engine import workload_names
from repro.workloads.generator import build_workload
from repro.workloads.message_passing import PATTERNS, build_mp_workload
from repro.workloads.profiles import APP_ORDER, get_profile


@pytest.mark.parametrize("app", APP_ORDER)
@pytest.mark.parametrize("nctx", [1, 2, 4])
def test_generated_workload_lints_clean(app, nctx):
    build = build_workload(get_profile(app), nctx)
    diags = lint_program(build.program)
    assert diags == [], "\n".join(str(d) for d in diags)


@pytest.mark.parametrize("app", ["vpr", "lu", "blackscholes"])
def test_hinted_workload_lints_clean(app):
    build = build_workload(get_profile(app), 2, hints=True)
    diags = lint_program(build.program)
    assert diags == [], "\n".join(str(d) for d in diags)


@pytest.mark.parametrize("app", ["ammp", "fft"])
@pytest.mark.parametrize("scale", [0.25, 2.0])
def test_scaled_workload_lints_clean(app, scale):
    build = build_workload(get_profile(app), 2, scale=scale)
    diags = lint_program(build.program)
    assert diags == [], "\n".join(str(d) for d in diags)


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("nctx", [2, 4])
def test_message_passing_workload_lints_clean(pattern, nctx):
    build = build_mp_workload(nctx, pattern=pattern)
    diags = lint_program(build.program)
    assert diags == [], "\n".join(str(d) for d in diags)


@pytest.mark.parametrize("name,limit", [
    pytest.param(name, limit, id=name + ("-limit" if limit else ""))
    for name in (*APP_ORDER, *workload_names())
    for limit in (False, True)
])
def test_oracle_bounds_are_sane(name, limit):
    """Every build family, plain and under the Limit study."""
    from repro.harness.experiment import build_point

    build = build_point(name, 4)
    report = analyze_build(build, limit=limit)
    assert 0.0 <= report.merge_upper_bound <= 1.0
    assert 0.0 <= report.rst_upper_bound <= 1.0
    fractions = (
        report.identical_fraction
        + report.input_divergent_fraction
        + report.control_divergent_fraction
    )
    assert fractions == pytest.approx(1.0)
    assert report.name.endswith("-limit") == limit
    shared = build.wtype is WorkloadType.MULTI_THREADED and not limit
    assert report.lvip_eligible == (not shared)
    if shared:
        # MT threads get strided stacks and read their tid: some registers
        # provably end pairwise-different, so the RST bound is non-trivial.
        assert report.rst_upper_bound < 1.0
        assert SP_must_differ(report)


def SP_must_differ(report):
    from repro.isa.registers import SP

    return SP in report.diverging_exit_regs


# ------------------------------------------------------ campaign lint gate
def test_lint_campaign_jobs_checks_each_workload_once(tmp_path):
    from repro.core.config import MMTConfig
    from repro.harness.campaign import ResultCache
    from repro.harness.experiment import (
        CampaignJob,
        _lint_key,
        build_point,
        lint_campaign_jobs,
    )

    jobs = [
        CampaignJob("ammp", MMTConfig.base(), 2, scale=0.25),
        CampaignJob("ammp", MMTConfig.mmt_fxr(), 2, scale=0.25),  # same build
        CampaignJob("vpr", MMTConfig.base(), 2, scale=0.25),
    ]
    lines = []
    fresh = lint_campaign_jobs(jobs, cache_dir=tmp_path, progress=lines.append)
    assert fresh == 2  # two distinct (app, threads, scale) triples
    assert len(lines) == 2
    # Second invocation: content-addressed verdicts short-circuit the lint.
    fresh = lint_campaign_jobs(jobs, cache_dir=tmp_path)
    assert fresh == 0
    cache = ResultCache(tmp_path)
    for app in ("ammp", "vpr"):
        digest = build_point(app, 2, scale=0.25).program.digest()
        assert _lint_key(digest) in cache


def test_lint_campaign_jobs_counts_a_shared_program_once(tmp_path):
    """Distinct workloads with one program lint it once: the later one
    reports the verdict the earlier one left, even when both were
    checked at the same time."""
    from repro.core.config import MMTConfig
    from repro.harness.experiment import (
        CampaignJob,
        build_point,
        lint_campaign_jobs,
    )

    assert (build_point("ammp", 2, scale=0.2).program.digest()
            == build_point("ammp", 4, scale=0.2).program.digest())
    jobs = [CampaignJob("ammp", MMTConfig.base(), threads, scale=0.2)
            for threads in (2, 4)]
    lines = []
    assert lint_campaign_jobs(jobs, cache_dir=tmp_path,
                              progress=lines.append) == 1
    assert lines == ["lint ammp: ok", "lint ammp: cached ok"]


def test_lint_campaign_jobs_skips_custom_jobs(tmp_path):
    from repro.harness.experiment import lint_campaign_jobs

    assert lint_campaign_jobs([object(), "not-a-job"], cache_dir=tmp_path) == 0


@pytest.mark.parametrize("as_type", [str, Path])
def test_run_points_lint_markers_follow_a_path_cache(
    tmp_path, monkeypatch, as_type
):
    """A cache given as a path holds the lint verdicts too: nothing lands
    under ``$REPRO_CACHE_DIR`` or the working directory's default."""
    from repro.core.config import MMTConfig
    from repro.harness.campaign import ResultCache
    from repro.harness.experiment import (
        CampaignJob,
        _lint_key,
        build_point,
        run_points,
    )

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
    chosen = tmp_path / "chosen"
    result = run_points(
        [CampaignJob("ammp", MMTConfig.base(), 2, scale=0.1)],
        workers=1,
        cache=as_type(chosen),
    )
    assert result.completed
    digest = build_point("ammp", 2, scale=0.1).program.digest()
    assert _lint_key(digest) in ResultCache(chosen)
    assert not (tmp_path / "env-cache").exists()
    assert not (tmp_path / ".repro-cache").exists()


def test_run_points_lints_before_dispatch(tmp_path):
    from repro.core.config import MMTConfig
    from repro.harness.experiment import CampaignJob, run_points

    result = run_points(
        [CampaignJob("ammp", MMTConfig.base(), 2, None, 0.25)],
        workers=1,
        cache=None,
        use_cache=False,
    )
    assert result.completed
