"""Experiment runner: build workloads, simulate points, validate results.

A simulation point is a :class:`CampaignJob`, which carries everything
that picks its result, the engine and the workload seed included.
Batches of points go through :func:`run_points`, the one code path that
sequences a simulation campaign: it lints and oracle-analyses each
distinct workload, fans the points out across worker processes via
:mod:`repro.harness.campaign` (with on-disk result caching and per-job
timeout/retry) and checks every result against its static redundancy
oracle.  A campaign builds each distinct workload it simulates once, in
its pre-dispatch pass, and its results name that workload by content
digest (:class:`WorkloadRef`) instead of carrying a copy.  No result is
kept between calls: a figure reads the results its campaign returned
(:mod:`repro.harness.figures`).
"""

from __future__ import annotations

import math
import os
import pickle
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

from repro.core.config import MMTConfig
from repro.harness.campaign import (
    CampaignResult,
    ResultCache,
    _unwrap_cache_entry,
    code_fingerprint,
    job_key,
    job_label,
    run_campaign,
)
from repro.obs import (
    DEFAULT_WATCHDOG_CYCLES,
    FlightRecorder,
    IntervalMetrics,
    MemorySink,
    Observer,
    WatchdogError,
    campaign_observer,
    get_failure_dump_path,
    load_dump,
    write_dump,
)
from repro.pipeline.config import MachineConfig
from repro.pipeline.fast import resolve_engine
from repro.pipeline.stats import SimStats
from repro.power.model import energy_of_run
from repro.power.params import EnergyBreakdown, EnergyParams
from repro.workloads.engine import (
    WorkloadRegistryError,
    build_engine_workload,
    get_workload,
    is_engine_workload,
)
from repro.workloads.generator import WorkloadBuild, build_workload
from repro.workloads.profiles import APP_ORDER, PROFILES, get_profile
from repro.workloads.suites import check_scale, check_threads

#: Config names accepted by the CLI (``--config``, ``--configs``); keys
#: equal ``MMTConfig.<factory>().name``.
CONFIG_FACTORIES = {
    "Base": MMTConfig.base,
    "MMT-F": MMTConfig.mmt_f,
    "MMT-FX": MMTConfig.mmt_fx,
    "MMT-FXR": MMTConfig.mmt_fxr,
    "MMT-FXR+H": MMTConfig.mmt_fxr_hints,
    "Limit": MMTConfig.limit,
}


@dataclass(frozen=True)
class WorkloadRef:
    """The workload one run simulated, named rather than carried.

    *digest* (:meth:`~repro.isa.program.Program.digest`) and *nctx* key
    the run's oracle report; the run's job rebuilds the workload through
    :func:`build_point` when no report is memoised or stored.
    """

    name: str
    digest: str
    nctx: int


@dataclass
class RunResult:
    """One completed simulation of :attr:`job`.

    Campaign workers ship results to the driver, which holds them and
    caches them on disk, so a result references its workload
    (:class:`WorkloadRef`, a few hundred bytes) instead of embedding the
    build (about 100 KiB pickled at scale 1.0).
    """

    job: CampaignJob
    stats: SimStats
    energy: EnergyBreakdown
    sync_stats: object
    workload: WorkloadRef
    outputs: list = field(repr=False, default_factory=list)

    @property
    def cycles(self) -> int:
        return self.stats.cycles


@dataclass(frozen=True)
class CampaignJob:
    """One simulation point, as a picklable, hashable campaign job.

    A job carries everything that picks its result, so two equal jobs
    are one point with one result.  ``machine=None`` means the default
    machine for the thread count.  A job stores the machine it simulates
    (widened to the thread count, with no start delays when every
    context starts at once), and ``None`` when that is the default, so
    one point has one cache key however it was spelled.  ``tag``
    distinguishes otherwise-identical jobs (and is part of the cache
    key); :func:`simulate_job` keys its two fault injections off it.
    ``engine`` picks the simulation core (``"reference"`` or ``"fast"``,
    see :mod:`repro.pipeline.fast`); it is part of the cache key even
    though both engines are cycle-exact, so a fast-engine bug can never
    poison reference results (and the oracle gate cross-checks both
    populations independently).  ``token`` is derived from the named
    workload, never set by a caller: the
    :meth:`~repro.workloads.engine.Workload.cache_token` of a registry
    workload (a trace replay's digest), so whichever command builds the
    job, re-recording a trace at the same path changes its cache key.
    """

    app: str
    config: MMTConfig
    threads: int
    machine: MachineConfig | None = None
    scale: float = 1.0
    tag: str = ""
    engine: str = "reference"
    #: Workload-generation seed (``None`` = the workload's default).
    #: Paper profiles reseed their program generator with it;
    #: registry/engine workloads fold it into their phase schedules and
    #: request streams.  It is part of the job, and so of its cache key.
    seed: int | None = None
    token: str = field(init=False, default="")

    def __post_init__(self) -> None:
        if self.machine is not None:
            machine = _normalize_machine(self.machine, self.threads)
            if machine == MachineConfig(num_threads=self.threads):
                machine = None
            object.__setattr__(self, "machine", machine)
        object.__setattr__(self, "token", workload_token(self.app))

    @property
    def hints(self) -> bool:
        """Whether the job simulates its app's hinted build: its config's
        ``use_hints`` for a paper app, and ``False`` for a registry
        workload, which builds as it is.  The pre-dispatch pass, the
        build hand-off, :func:`simulate` and the oracle rebuild all key
        the workload by it."""
        return self.config.use_hints and not is_engine_workload(self.app)

    def label(self) -> str:
        return f"{self.app}/{self.config.name}/{self.threads}t" + (
            f"[{self.tag}]" if self.tag else ""
        )


def workload_token(app: str) -> str:
    """The cache token of the workload *app* names: a registry workload's
    :meth:`~repro.workloads.engine.Workload.cache_token` (a trace
    replay's digest); empty for a paper app, and for a name that does not
    load, whose build then fails with the reason."""
    if not is_engine_workload(app):
        return ""
    try:
        return get_workload(app).cache_token()
    except WorkloadRegistryError:
        return ""


def _normalize_machine(machine: MachineConfig, threads: int) -> MachineConfig:
    """*machine* widened to *threads* contexts, its all-zero start delays
    (one per context) spelled as none: the machine a job stores.  Delays
    of another length stay as given, for the core to refuse."""
    if machine.num_threads < threads:
        machine = machine.with_threads(threads)
    delays = machine.start_delays
    if len(delays) == threads and not any(delays):
        machine = replace(machine, start_delays=())
    return machine


#: The spool directory of the current :func:`build_handoff` scope, and the
#: spooled build of each ``(app, threads, scale, seed, hints)`` the pass
#: made; ``None`` outside a scope.  Module state because simulation
#: workers are forked and inherit it: the runner and the job (and so the
#: cache key) stay as they are.
_SPOOL: str | None = None
_HANDOFF: dict[tuple, str] | None = None


@contextmanager
def build_handoff():
    """Scope one campaign's build hand-off.

    The scope owns a spool, a temporary directory.  Each worker of a
    pre-dispatch pass (:func:`lint_campaign_jobs`) run inside the scope
    pickles its build there, after ``Program.digest()``, and the driver
    keeps only the file's path, so no build passes through the driver or
    sits in the heap that forked workers inherit.  :func:`build_point`
    in a simulation worker forked inside the scope loads its workload
    from that file: a campaign generates and hashes each distinct
    workload once.  Workers started by ``spawn``, jobs the pass did not
    build, spool files that cannot be read and calls outside a scope
    build as usual.  On exit, by return or exception, the spool is
    removed, so a later campaign builds afresh.
    """
    global _HANDOFF, _SPOOL
    outer = _HANDOFF, _SPOOL
    _SPOOL = tempfile.mkdtemp(prefix="repro-spool-")
    _HANDOFF = {}
    try:
        yield
    finally:
        shutil.rmtree(_SPOOL, ignore_errors=True)
        _HANDOFF, _SPOOL = outer


def build_point(
    app: str, threads: int, scale: float = 1.0, seed: int | None = None,
    hints: bool = False,
) -> WorkloadBuild:
    """Build the workload for one simulation point, whatever its origin.

    *app* is either a paper application profile (``fft``, ``ocean``, …)
    or a registry workload name — an engine-generated workload
    (``dyn-bursty``, ``reqstream-uniform``, ``mp-ring``), a recorded-trace
    reference (``trace:PATH``), or anything registered via
    :func:`repro.workloads.engine.register_workload`.  *hints* builds a
    paper application with its software remerge hints (the program a
    ``use_hints`` configuration runs); a registry workload builds as it
    is.  Every harness path that turns a name into a program (simulation,
    lint gate, oracle, figures) resolves through here, so registry
    workloads are first-class campaign citizens.  Inside a campaign's :func:`build_handoff`, a point
    its pre-dispatch pass built is loaded from the pass's spooled copy; a
    missing or unreadable copy means a fresh build.
    """
    if _HANDOFF:
        path = _HANDOFF.get((app, threads, scale, seed, hints))
        if path is not None:
            try:
                with open(path, "rb") as handle:
                    return pickle.load(handle)
            except Exception:  # noqa: BLE001 - build afresh below
                pass
    if is_engine_workload(app):
        return build_engine_workload(app, threads, scale=scale, seed=seed)
    return build_workload(get_profile(app), threads, scale=scale, seed=seed,
                          hints=hints)


def simulate(
    job: CampaignJob,
    obs: Observer | None = None,
    *,
    run=None,
    failure_dump: str | None = None,
) -> RunResult:
    """Run one simulation point (no caching at this level): the one path
    from a :class:`CampaignJob` to a core run.

    Builds the job's workload (:func:`build_point`), the Limit study's
    identical clones under a ``limit_identical`` config, and the job's
    engine on its machine, with *obs* attached, then runs ``run(core)``
    (default ``core.run()``): the hook through which a profiler, a
    benchmark's timer or an injected fault runs the core.  With
    *failure_dump* set (and an observer carrying a flight recorder), any
    exception escaping the run — watchdog, invariant violation, even the
    SIGTERM-turned-exception of a campaign timeout kill — leaves a
    flight-recorder dump at that path before propagating.  The dump
    records the job, so ``repro replay`` (:func:`replay_dump`) re-runs
    this very point.
    """
    build = build_point(job.app, job.threads, scale=job.scale, seed=job.seed,
                        hints=job.hints)
    workload = WorkloadRef(build.program.name, build.program.digest(),
                           build.nctx)
    sim_job = build.limit_job() if job.config.limit_identical else build.job()
    machine = job.machine or MachineConfig(num_threads=job.threads)
    core = resolve_engine(job.engine)(machine, job.config, sim_job, obs=obs)
    try:
        stats = core.run() if run is None else run(core)
    except BaseException as exc:
        if failure_dump and obs is not None and obs.recorder is not None:
            if isinstance(exc, WatchdogError) and exc.dump is not None:
                document = exc.dump
            else:
                document = obs.recorder.dump(
                    core, error=f"{type(exc).__name__}: {exc}"
                )
            document["job"] = _job_document(job)
            try:
                write_dump(document, failure_dump)
            except Exception:  # pragma: no cover - dump must not mask exc
                pass
        raise
    return RunResult(
        job=job,
        stats=stats,
        energy=energy_of_run(core, EnergyParams()),
        sync_stats=core.sync.stats,
        workload=workload,
        outputs=build.output_region(sim_job),
    )


def simulate_job(job: CampaignJob, seed: int) -> RunResult:
    """The campaign runner: execute one :class:`CampaignJob`.

    Runs in a worker process; the returned :class:`RunResult` is shipped
    back (and disk-cached) by the campaign layer.  The derived *seed* is
    unused here — paper workloads are bit-deterministic by construction —
    but the signature keeps the runner drop-in compatible with stochastic
    runners.

    Two tags inject faults, for the ``repro campaign`` demos and tests:
    ``inject-hang`` sleeps until the campaign's timeout kills it, and
    ``livelock`` wedges every context's fetch, so with failure dumps
    enabled the no-forward-progress watchdog fires (after a deliberately
    short 5,000-cycle fuse, so demos stay fast) and leaves a flight dump.
    Any other job runs as is.
    """
    del seed
    if job.tag == "inject-hang":
        while True:  # pragma: no cover - killed by the campaign timeout
            time.sleep(3600)
    livelock = job.tag == "livelock"
    dump_path = get_failure_dump_path()
    obs = None
    if dump_path:
        obs = campaign_observer(
            watchdog_cycles=5_000 if livelock else DEFAULT_WATCHDOG_CYCLES
        )
    return simulate(job, obs, run=_run_wedged if livelock else None,
                    failure_dump=dump_path)


def _run_wedged(core):
    """Stall every context's fetch forever, then run: an injected
    livelock."""
    core.fetch_stall_until = [core.config.max_cycles + 1] * core.num_threads
    return core.run()


def trace_run(
    job: CampaignJob, interval: int = 1000
) -> tuple[RunResult, Observer]:
    """Run *job* with full observability attached (``repro trace``).

    Returns the run result plus the observer holding the collected events
    (``obs.sink``), the interval time series (``obs.interval``), and the
    flight recorder.
    """
    obs = Observer(
        sink=MemorySink(),
        interval=IntervalMetrics(interval),
        recorder=FlightRecorder(),
        watchdog_cycles=DEFAULT_WATCHDOG_CYCLES,
    )
    return simulate(job, obs), obs


#: The :class:`CampaignJob` fields a flight dump records: every field a
#: caller sets but the tag, so the replay of an injected fault runs the
#: healthy point.
_DUMPED_FIELDS = ("app", "config", "threads", "machine", "scale", "engine",
                  "seed")


def _job_document(job: CampaignJob) -> dict:
    """*job* as a flight dump records it, its config and machine as their
    dataclass fields (``machine`` null for the default)."""
    document = {name: getattr(job, name) for name in _DUMPED_FIELDS}
    document["config"] = asdict(job.config)
    document["machine"] = job.machine and asdict(job.machine)
    return document


def _check_fields(kind: str, data, names) -> None:
    """``ValueError`` unless *data* is an object holding exactly the
    fields *names*."""
    if not isinstance(data, dict):
        raise ValueError(f"its {kind} is not an object: {data!r}")
    if missing := sorted(set(names) - set(data)):
        raise ValueError(f"its {kind} lacks {missing}")
    if unknown := sorted(set(data) - set(names)):
        raise ValueError(f"its {kind} has unknown fields {unknown}")


def _dataclass_of(cls, data):
    """The *cls* instance whose :func:`dataclasses.asdict` form is *data*;
    ``ValueError`` unless *data* holds exactly the fields of *cls*."""
    _check_fields(cls.__name__, data, [f.name for f in fields(cls)])
    template = cls()
    values = {}
    for name, value in data.items():
        default = getattr(template, name)
        if is_dataclass(default):
            value = _dataclass_of(type(default), value)
        elif isinstance(default, tuple):
            value = tuple(value)
        values[name] = value
    return cls(**values)


def _dumped_job(document) -> CampaignJob:
    """The job :func:`_job_document` wrote as *document*; ``ValueError``
    (or ``TypeError``) for anything less than a complete job."""
    _check_fields("job", document, _DUMPED_FIELDS)
    values = dict(document)
    values["config"] = _dataclass_of(MMTConfig, values["config"])
    if values["machine"] is not None:
        values["machine"] = _dataclass_of(MachineConfig, values["machine"])
    app, seed = values["app"], values["seed"]
    if not isinstance(app, str) or not (app in PROFILES
                                        or is_engine_workload(app)):
        raise ValueError(f"its job names unknown app {app!r}")
    if seed is not None and (isinstance(seed, bool)
                             or not isinstance(seed, int)):
        raise ValueError(f"its job's seed {seed!r} is not an int")
    values["threads"] = check_threads(values["threads"])
    values["scale"] = check_scale(values["scale"])
    resolve_engine(values["engine"])
    return CampaignJob(**values)


@dataclass
class ReplayResult:
    """A post-mortem flight-dump replay, cross-checked against the oracle."""

    dump_path: str
    #: The loaded dump document (ring events, core snapshot, error).
    dump: dict
    #: The replayed run; ``run.job`` is the job the dump recorded.
    run: RunResult
    obs: Observer
    #: Static-oracle disagreements plus interval-reconciliation
    #: mismatches from the replayed run; empty means the replay is clean.
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def replay_dump(path, *, interval: int = 1000) -> ReplayResult:
    """Re-run the simulation point recorded in a flight dump.

    Loads the dump, rebuilds the :class:`CampaignJob` it recorded (config
    and machine included), and re-runs it under full observability
    (:func:`trace_run`).  The replay is held to the same gates as a
    campaign result: the static redundancy/value oracle
    (:func:`oracle_for_run` → ``validate_against``, which includes the
    per-site LVIP bounds) plus exact interval reconciliation — so a
    post-mortem replay that contradicts a proven bound is reported, not
    silently trusted.

    Injected faults (the ``--inject-livelock`` demo) are not part of the
    recorded job, so their replays run the *healthy* point; a dump from a
    genuine simulator bug reproduces it, exception and all.  A dump that
    is not JSON, or holds no complete job (a dump of an older format
    included), raises ``ValueError``: it is never replayed as a guess.
    """
    try:
        document = load_dump(path)
    except ValueError as exc:
        raise ValueError(f"flight dump {path} is not JSON: {exc}") from None
    spec = document.get("job") if isinstance(document, dict) else None
    if not isinstance(spec, dict):
        raise ValueError(
            f"flight dump {path} carries no job spec (written by an older "
            "version?); cannot replay"
        )
    try:
        job = _dumped_job(spec)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"flight dump {path} holds no complete job: {exc}"
        ) from None
    run, obs = trace_run(job, interval=interval)
    problems: list[str] = []
    try:
        problems.extend(oracle_for_run(run).validate_against(run.stats))
    except Exception as exc:  # noqa: BLE001 - reported as a problem
        problems.append(f"oracle analysis failed: {type(exc).__name__}: {exc}")
    problems.extend(
        f"interval {line}" for line in obs.interval.reconcile(run.stats)
    )
    return ReplayResult(
        dump_path=str(path), dump=document, run=run, obs=obs,
        problems=problems,
    )


@dataclass(frozen=True)
class OracleViolation:
    """One dynamic run that disagreed with its static oracle bounds.

    Either the workload violates the analysis assumptions or the
    simulator (or the oracle) has a bug — both are campaign-stopping
    findings, which is why aggregation surfaces them as structured
    failures instead of silently archiving the run.
    """

    job: str
    workload: str
    config: str
    problems: tuple[str, ...]

    def label(self) -> str:
        return self.job

    def __str__(self) -> str:
        lines = "; ".join(self.problems)
        return f"{self.job}: {lines}"


_ORACLE_MEMO: dict[tuple, object] = {}


def clear_oracle_memo() -> None:
    """Drop memoised oracle reports (tests use this for isolation)."""
    _ORACLE_MEMO.clear()


def oracle_for_run(run: RunResult, cache: ResultCache | None = None):
    """The static :class:`~repro.analysis.redundancy.OracleReport`
    governing one completed run.

    Reports are memoised per (program digest, context count, limit-mode)
    so a campaign over many configurations analyses each distinct
    workload once; a campaign's pre-dispatch pass
    (:func:`lint_campaign_jobs`) seeds the memo from its workers.  On a
    memo miss the report stored in *cache* (a result cache, see
    :func:`_oracle_key`) is used.  Failing both, the workload is rebuilt
    from the run's job, analysed, and the report stored
    in *cache*; a rebuild whose digest differs from the one the run
    simulated (the registry changed, say) raises ``ValueError`` rather
    than validate the run against another program.  Limit-study runs
    (``config.limit_identical``) execute identical clones with soft tid 0
    and therefore get the Limit analysis.
    """
    from repro.analysis.redundancy import OracleReport, analyze_build

    ref, job = run.workload, run.job
    limit = job.config.limit_identical
    key = (ref.digest, ref.nctx, limit)
    report = _ORACLE_MEMO.get(key)
    if report is None and cache is not None:
        report = cache.load(_oracle_key(*key))
        if not isinstance(report, OracleReport):
            report = None
    if report is None:
        build = build_point(job.app, job.threads, scale=job.scale,
                            seed=job.seed, hints=job.hints)
        digest = build.program.digest()
        if digest != ref.digest:
            raise ValueError(
                f"workload {ref.name!r} rebuilds as program {digest[:12]}, "
                f"not the {ref.digest[:12]} the run simulated"
            )
        report = analyze_build(build, limit)
        if cache is not None:
            cache.store(_oracle_key(*key), report)
    _ORACLE_MEMO[key] = report
    return report


def validate_campaign_result(
    result, progress=None, cache: ResultCache | None = None
) -> list[OracleViolation]:
    """Check every successful simulation against its static oracle.

    This is the campaign aggregation gate: each OK outcome whose payload
    is a :class:`RunResult` (including cache hits — stale cached results
    from a buggy simulator version are exactly what this catches) is
    cross-checked with :meth:`OracleReport.validate_against`, its report
    found by :func:`oracle_for_run` in the memo, then in *cache*.  Violations
    are appended to ``result.validation_failures`` and returned; a
    payload whose analysis itself fails (e.g. fixpoint divergence) is
    reported as a violation rather than skipped.

    Non-simulation payloads (custom runners) are skipped — the gate only
    claims what the oracle can actually check.
    """
    emit = progress if callable(progress) else (lambda line: None)
    violations: list[OracleViolation] = []
    for outcome in result.outcomes:
        payload = outcome.payload
        if not outcome.ok or not isinstance(payload, RunResult):
            continue
        job = job_label(outcome.job)
        try:
            report = oracle_for_run(payload, cache)
            problems = report.validate_against(payload.stats)
        except Exception as exc:  # noqa: BLE001 - reported as a violation
            problems = [f"oracle analysis failed: {type(exc).__name__}: {exc}"]
        if problems:
            violation = OracleViolation(
                job=job,
                workload=payload.workload.name,
                config=payload.job.config.name,
                problems=tuple(problems),
            )
            violations.append(violation)
            emit(f"[oracle] VIOLATION {violation}")
    result.validation_failures.extend(violations)
    return violations


class WorkloadCheckError(RuntimeError):
    """A campaign workload failed its pre-dispatch check: its task in the
    pass timed out, or its worker died.  Nothing has simulated yet."""


class WorkloadLintError(WorkloadCheckError):
    """A campaign workload failed the pre-dispatch static lint."""

    def __init__(self, name: str, diagnostics: list) -> None:
        lines = "\n".join(f"  {d}" for d in diagnostics)
        super().__init__(
            f"workload {name!r} failed static lint "
            f"({len(diagnostics)} diagnostic(s)):\n{lines}"
        )
        self.name = name
        self.diagnostics = diagnostics


def _lint_key(digest: str) -> str:
    """Result-cache key of the clean lint verdict of one program."""
    return job_key(("lint", digest))


def _oracle_key(digest: str, nctx: int, limit: bool) -> str:
    """Result-cache key of the stored oracle report whose
    :func:`oracle_for_run` memo key is ``(digest, nctx, limit)``."""
    return job_key(("oracle", digest, nctx, limit))


@dataclass(frozen=True)
class WorkloadCheck:
    """One task of a campaign's pre-dispatch pass: a distinct workload.

    :func:`check_workload` runs it on the worker pool.  *cache_root* is
    the result cache holding the stored lint verdicts and oracle
    reports; *limits* lists the ``limit_identical`` flags whose oracle
    reports the campaign needs; *spool* is the hand-off directory the
    build is pickled into (``None``: no hand-off).
    """

    app: str
    threads: int
    scale: float
    seed: int | None
    hints: bool
    cache_root: str
    limits: tuple[bool, ...]
    spool: str | None

    def label(self) -> str:
        return f"{self.app}/{self.threads}t" + ("/hints" if self.hints else "")


@dataclass
class WorkloadChecked:
    """What :func:`check_workload` found for one workload."""

    name: str
    digest: str
    nctx: int
    #: Lint findings; ``None`` when not linted (verdict stored).
    diagnostics: list | None
    #: limit flag -> oracle report; a flag whose analysis raised is
    #: absent, so validation re-runs it and reports the failure.
    reports: dict
    #: The spool file holding the build, pickled with its digest
    #: memoised (see :func:`build_handoff`); ``None`` without a spool.
    build_path: str | None


def _check_workload(task: WorkloadCheck) -> WorkloadChecked:
    from repro.analysis.lint import lint_program
    from repro.analysis.redundancy import OracleReport, analyze_build

    build = build_point(task.app, task.threads, scale=task.scale,
                        seed=task.seed, hints=task.hints)
    digest = build.program.digest()
    build_path = None
    if task.spool is not None:
        fd, build_path = tempfile.mkstemp(dir=task.spool, suffix=".pkl")
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(build, handle, pickle.HIGHEST_PROTOCOL)
    cache = ResultCache(task.cache_root)
    diagnostics = None
    if cache.load(_lint_key(digest)) is not True:
        diagnostics = lint_program(build.program)
        if not diagnostics:
            cache.store(_lint_key(digest), True)
    reports = {}
    if not diagnostics:
        for limit in task.limits:
            key = _oracle_key(digest, build.nctx, limit)
            report = cache.load(key)
            if not isinstance(report, OracleReport):
                try:
                    report = analyze_build(build, limit)
                except Exception:  # noqa: BLE001 - reported by validation
                    continue
                cache.store(key, report)
            reports[limit] = report
    return WorkloadChecked(build.program.name, digest, build.nctx,
                           diagnostics, reports, build_path)


def check_workload(task: WorkloadCheck, seed: int):
    """Campaign runner of the pre-dispatch pass (see
    :func:`lint_campaign_jobs`).

    Returns the :class:`WorkloadChecked` result, or the exception that
    building or linting raised, for the driver to re-raise with its type
    intact; ``None`` when that exception would not survive pickling (the
    driver then repeats the check in-process to raise it).
    """
    del seed
    try:
        return _check_workload(task)
    except Exception as exc:  # noqa: BLE001 - re-raised by the driver
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:  # noqa: BLE001 - constructor takes other args
            return None
        return exc


def lint_campaign_jobs(
    jobs,
    cache_dir=None,
    progress=None,
    *,
    workers: int | None = None,
    timeout: float | None = None,
) -> int:
    """The pre-dispatch pass: lint every distinct workload of *jobs* and
    compute its oracle reports.

    Each distinct ``(app, threads, scale, seed, hints)`` tuple, *hints*
    being :attr:`CampaignJob.hints`, becomes one
    :class:`WorkloadCheck` task on the worker pool (*workers* processes,
    *timeout* seconds per task, no result cache and no run-log).  A task
    builds the workload (registry workloads included, via
    :func:`build_point`) and, inside a :func:`build_handoff` scope,
    pickles it into the scope's spool.  It lints the program unless a
    clean verdict is stored, and it loads or computes the oracle report
    for each ``limit_identical`` flag among that workload's jobs.  Clean
    verdicts and reports are entries of the result cache at *cache_dir*,
    keyed by program digest (reports also by context count and limit
    flag) under the code fingerprint, so a later campaign, in any
    process, neither lints nor analyses that program again until the
    code changes.  A corrupt or foreign entry is a miss.  The driver then
    works through the results in job order: it reports ``lint NAME: ok``
    / ``cached ok`` through *progress*, seeds the memo
    :func:`oracle_for_run` reads, so validation only runs
    ``validate_against``, and records each spooled build's path for the
    simulation workers.  Any diagnostic aborts dispatch with
    :class:`WorkloadLintError` — a workload-generator bug should fail in
    milliseconds here, not wedge a fleet of simulations.
    An exception from building or linting is re-raised as it was raised;
    a task whose worker died or timed out raises
    :class:`WorkloadCheckError` naming the workload.

    Returns the number of programs actually linted (cache misses).
    Non-:class:`CampaignJob` entries (custom test jobs) are skipped.
    """
    root = str(ResultCache(cache_dir).root)
    code_fingerprint()  # once here, not in every forked pass worker
    emit = progress if callable(progress) else (lambda line: None)
    limits: dict[tuple[str, int, float, int | None, bool], list[bool]] = {}
    for job in jobs:
        if not isinstance(job, CampaignJob):
            continue
        flags = limits.setdefault(
            (job.app, job.threads, job.scale, job.seed, job.hints),
            [],
        )
        if job.config.limit_identical not in flags:
            flags.append(job.config.limit_identical)
    tasks = [
        WorkloadCheck(*key, root, tuple(flags), _SPOOL)
        for key, flags in limits.items()
    ]
    result = run_campaign(
        tasks, check_workload, workers=workers, timeout=timeout,
        use_cache=False,
    )
    # Workloads can share a program.  Their workers run at once, so any
    # of them may be the one that linted it and stored the verdict the
    # others found; the driver reports it linted at its first workload in
    # job order, as a serial pass would.
    linted = {
        outcome.payload.digest for outcome in result.outcomes
        if isinstance(outcome.payload, WorkloadChecked)
        and outcome.payload.diagnostics == []
    }
    reported: set[str] = set()
    for task, outcome in zip(tasks, result.outcomes):
        checked = outcome.payload
        if not outcome.ok:
            raise WorkloadCheckError(
                f"pre-dispatch check of workload {task.label()} "
                f"failed: {outcome.error}"
            )
        if checked is None:
            checked = _check_workload(task)
        if isinstance(checked, BaseException):
            raise checked
        if checked.diagnostics:
            raise WorkloadLintError(checked.name, checked.diagnostics)
        if checked.diagnostics == []:  # also a check repeated above
            linted.add(checked.digest)
        if checked.digest in linted and checked.digest not in reported:
            reported.add(checked.digest)
            emit(f"lint {checked.name}: ok")
        else:
            emit(f"lint {checked.name}: cached ok")
        for limit, report in checked.reports.items():
            _ORACLE_MEMO[(checked.digest, checked.nctx, limit)] = report
        if _HANDOFF is not None and checked.build_path is not None:
            _HANDOFF[(task.app, task.threads, task.scale, task.seed,
                      task.hints)] = checked.build_path
    return len(reported)


def run_points(
    points,
    *,
    workers: int | None = None,
    timeout: float | None = None,
    retries: int = 1,
    cache=None,
    use_cache: bool = True,
    campaign_seed: int = 0,
    progress=None,
    failure_dump_dir=None,
) -> CampaignResult:
    """Run the :class:`CampaignJob` *points* as one validated campaign.

    This is the one code path that sequences a simulation campaign:
    ``repro campaign``, ``repro reproduce`` and every figure, table and
    sweep target come through here, with :func:`simulate_job` as the
    runner, so a point has one cache key whichever command ran it.
    The returned result holds every point's outcome; a figure's rows
    read them (:func:`repro.harness.figures.run_figures`).

    Before any job dispatches, one pre-dispatch pass on the worker pool
    (:func:`lint_campaign_jobs`) lints and oracle-analyses every distinct
    workload of the points that have no usable cached result; it stores
    its verdicts and reports in the result cache, whatever *use_cache*
    says, and the simulation workers reuse its builds (see
    :func:`build_handoff`).  After the campaign, every successful result,
    fresh or served from the cache, is cross-checked against the static
    redundancy oracle, whose report for a cache hit is the stored one
    (see :func:`oracle_for_run`), so a campaign of hits builds nothing.
    Disagreements land in ``result.validation_failures`` (see
    :func:`validate_campaign_result`).  ``result.pass_wall_time`` times
    finding the misses and the pass over them; ``result.wall_time`` is
    the simulation campaign's alone.
    """
    jobs = list(points)
    # Resolved as run_campaign resolves it, so the stored verdicts and
    # reports land beside the results whatever form *cache* takes.
    store = cache if isinstance(cache, ResultCache) else ResultCache(cache)
    with build_handoff():
        started = time.perf_counter()
        misses = [
            job for job in jobs if not use_cache or _unwrap_cache_entry(
                store.load(job_key(job, simulate_job))) is None
        ]
        if misses:
            lint_campaign_jobs(
                misses, cache_dir=store.root, progress=progress,
                workers=workers, timeout=timeout,
            )
        pass_wall_time = time.perf_counter() - started
        result = run_campaign(
            jobs,
            simulate_job,
            workers=workers,
            timeout=timeout,
            retries=retries,
            cache=store,
            use_cache=use_cache,
            campaign_seed=campaign_seed,
            progress=progress,
            failure_dump_dir=failure_dump_dir,
        )
    result.pass_wall_time = pass_wall_time
    validate_campaign_result(result, progress=progress, cache=store)
    return result


def geomean(values) -> float:
    """Geometric mean (the paper's summary statistic)."""
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def default_apps() -> list[str]:
    """All sixteen applications in the paper's Table 1 order."""
    return list(APP_ORDER)
