"""Parallel simulation campaigns with on-disk result caching.

A *campaign* is a batch of independent jobs — typically (workload,
configuration) simulation points — executed across all cores with:

* **content-addressed result caching** — each job is keyed by a stable
  hash of its specification, the runner that executes it, and a
  fingerprint of the simulator's source code, so re-running a sweep only
  executes points whose inputs actually changed;
* **deterministic per-job seeds** — derived from the campaign seed and
  the job key alone, so results never depend on worker count or
  scheduling order;
* **graceful degradation** — a hung or crashed job gets a per-job
  timeout plus a bounded number of retries and is *reported*, not fatal:
  a 100-point sweep with one bad point still yields 99 results;
* **streamed progress** — one line per job completion (hit/ok/failed/
  timeout) through a pluggable callback.

The runner is deliberately generic: any picklable job object plus a
module-level ``runner(job, seed) -> payload`` callable works, which is
what the differential/figure layers and the unit tests build on.
``repro.harness.experiment`` provides the standard simulation job type
(:class:`CampaignJob`) and runner.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import multiprocessing
import os
import pickle
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.runlog import RunLog

#: Distinguishes run-logs of campaigns started in the same process and
#: second (the default file name is stamp + pid + this sequence).
_RUNLOG_SEQ = itertools.count()

#: Default cache root (override with the REPRO_CACHE_DIR environment
#: variable or the ``cache_dir`` argument).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Extra attempts after the first failed/hung one.
DEFAULT_RETRIES = 1

_OK, _FAILED, _TIMEOUT = "ok", "failed", "timeout"


# ------------------------------------------------------------------ keying
def code_fingerprint() -> str:
    """Hash of the repro package's source code (cached per process).

    Campaign cache entries live under a directory named by this
    fingerprint, so editing the simulator invalidates every cached result
    without any manual cache management.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        override = os.environ.get("REPRO_CODE_FINGERPRINT")
        if override:
            _FINGERPRINT = override
        else:
            import repro

            digest = hashlib.sha256()
            root = Path(repro.__file__).parent
            for path in sorted(root.rglob("*.py")):
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
            _FINGERPRINT = digest.hexdigest()[:16]
    return _FINGERPRINT


_FINGERPRINT: str | None = None


def _canonical(value):
    """Reduce *value* to deterministic JSON-able primitives."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__type__": type(value).__name__,
            **{
                f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        # Sets iterate in hash order, which varies across processes for
        # str members (PYTHONHASHSEED); sort the canonical forms so the
        # cache key is reproducible — suite-expanded jobs cross process
        # boundaries and must hash identically everywhere.
        return sorted(
            (_canonical(item) for item in value),
            key=lambda item: json.dumps(item, sort_keys=True, default=repr),
        )
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


def job_key(job, runner=None) -> str:
    """Stable content hash identifying one (job, runner) pair.

    Dataclass jobs hash their canonicalised fields, anything else its
    ``repr``.  The runner's qualified name is mixed in so two runners
    interpreting the same job type never collide in the cache.
    """
    runner_id = "" if runner is None else (
        f"{getattr(runner, '__module__', '')}.{getattr(runner, '__qualname__', repr(runner))}"
    )
    blob = json.dumps({"job": _canonical(job), "runner": runner_id},
                      sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def derive_seed(campaign_seed: int, key: str) -> int:
    """Deterministic per-job seed: a pure function of campaign seed and
    job key, independent of worker count and completion order."""
    digest = hashlib.sha256(f"{campaign_seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ------------------------------------------------------------------- cache
class ResultCache:
    """Content-addressed on-disk store of pickled job payloads.

    Layout: ``<root>/<code-fingerprint>/<key[:2]>/<key>.pkl`` — one file
    per result, sharded by key prefix, partitioned by simulator version
    so stale results can never be served after a code change.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / code_fingerprint() / key[:2] / f"{key}.pkl"

    def load(self, key: str):
        """The cached entry for *key*, or None (corrupt entries are
        treated as misses and removed)."""
        path = self.path_for(key)
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            path.unlink(missing_ok=True)
            return None

    def store(self, key: str, payload) -> Path:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Write to a per-writer temp file, then rename: atomic, and two
        # campaigns storing the same key concurrently never collide.
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle)
            os.replace(tmp, path)
        finally:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()


def _wrap_cache_entry(payload, wall_time: float, max_rss_bytes: int) -> dict:
    """Cache entries carry the run's cost next to its payload, so cache
    hits can still report wall-clock and peak RSS in campaign summaries."""
    return {
        "__campaign__": 1,
        "payload": payload,
        "wall_time": wall_time,
        "max_rss_bytes": max_rss_bytes,
    }


def _unwrap_cache_entry(entry) -> tuple[object, float, int] | None:
    """(payload, wall_time, max_rss_bytes) of an entry
    :func:`_wrap_cache_entry` wrote, or None for anything else: a foreign
    object stored under a job's key is a miss, never a result."""
    if isinstance(entry, dict) and entry.get("__campaign__") == 1:
        try:
            return (entry["payload"], entry["wall_time"],
                    entry["max_rss_bytes"])
        except KeyError:
            pass
    return None


# ----------------------------------------------------------------- results
@dataclass
class JobOutcome:
    """What happened to one campaign job."""

    job: object
    key: str
    status: str  # "ok" | "failed" | "timeout"
    payload: object = None
    error: str | None = None
    attempts: int = 0
    wall_time: float = 0.0
    from_cache: bool = False
    seed: int = 0
    #: Worker peak RSS in **bytes** (``ru_maxrss`` normalized — Linux
    #: reports KiB, macOS bytes); for cache hits, the value recorded when
    #: the entry was produced.
    max_rss_bytes: int = 0
    #: Flight-recorder dump written by a failed/hung attempt, if any.
    dump_path: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == _OK


@dataclass
class CampaignResult:
    """All outcomes of one campaign, in input-job order, plus counters."""

    outcomes: list[JobOutcome] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    retries: int = 0
    #: Dispatch wall time, from the first cache lookup to the last result.
    wall_time: float = 0.0
    #: Wall time of ``run_points``' pre-dispatch pass (0.0: no pass ran).
    pass_wall_time: float = 0.0
    #: Path of the JSONL lifecycle run-log written for this campaign (see
    #: :mod:`repro.obs.runlog`), or None when logging was disabled.
    runlog_path: str | None = None
    #: Post-hoc validation failures attached at aggregation time (the
    #: campaign layer is validation-agnostic; see
    #: ``repro.harness.experiment.validate_campaign_result``, which checks
    #: every successful simulation against the static redundancy oracle).
    validation_failures: list = field(default_factory=list)
    #: The driver process's peak RSS in bytes, read when the campaign
    #: ended (a high-water mark over the process's life so far; 0 for an
    #: empty campaign).  Workers' peaks are on the outcomes.
    driver_max_rss_bytes: int = 0

    @property
    def jobs(self) -> int:
        return len(self.outcomes)

    @property
    def completed(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def failures(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def payloads(self) -> list:
        """Payloads of successful jobs, in job order."""
        return [o.payload for o in self.outcomes if o.ok]

    def summary(self) -> dict:
        """Campaign-level aggregation (see results.summarize_campaign)."""
        from repro.harness.results import summarize_campaign

        return summarize_campaign(self)


# ------------------------------------------------------------------ worker
def _max_rss_bytes() -> int:
    """This process's peak RSS in bytes (0 where rusage is unavailable).

    ``ru_maxrss`` is reported in KiB on Linux but in bytes on macOS —
    normalize here, once, so every consumer downstream (cache entries,
    summaries, the run-log, the campaign table) sees bytes.
    """
    try:
        import resource

        raw = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:  # pragma: no cover - non-POSIX platform
        return 0
    if sys.platform == "darwin":  # pragma: no cover - macOS only
        return raw
    return raw * 1024


def _worker_entry(conn, runner, job, seed, dump_path=None) -> None:
    """Runs in the child process: execute one job, ship the result back.

    With *dump_path* set, the path is published to the runner (via
    ``repro.obs.set_failure_dump_path``) so simulation runners can attach
    a flight recorder and leave a dump behind when the run dies — and
    SIGTERM (the parent's timeout kill) is turned into an exception so an
    externally killed attempt gets the same dump during its grace period.
    """
    if dump_path is not None:
        from repro.obs import set_failure_dump_path

        set_failure_dump_path(dump_path)
        try:
            import signal

            def _on_term(signum, frame):
                raise KeyboardInterrupt("terminated by campaign timeout")

            signal.signal(signal.SIGTERM, _on_term)
        except Exception:  # pragma: no cover - restricted environment
            pass
    started = time.perf_counter()
    try:
        payload = runner(job, seed)
        conn.send(
            (_OK, payload, time.perf_counter() - started, _max_rss_bytes())
        )
    except BaseException as exc:  # noqa: BLE001 - reported, not fatal
        try:
            conn.send(
                (_FAILED, f"{type(exc).__name__}: {exc}",
                 time.perf_counter() - started, _max_rss_bytes())
            )
        except Exception:
            pass
    finally:
        conn.close()


class _Running:
    """Bookkeeping for one in-flight attempt."""

    __slots__ = ("index", "job", "key", "seed", "attempt", "proc", "conn",
                 "started", "dump_path")

    def __init__(
        self, index, job, key, seed, attempt, proc, conn, dump_path=None
    ) -> None:
        self.index = index
        self.job = job
        self.key = key
        self.seed = seed
        self.attempt = attempt
        self.proc = proc
        self.conn = conn
        self.started = time.perf_counter()
        self.dump_path = dump_path


def default_workers() -> int:
    """Worker processes to use when the caller names no count: the CPUs
    this process may run on (its affinity set, where the platform has
    one), not every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def _terminate(proc) -> None:
    proc.terminate()
    proc.join(timeout=5)
    if proc.is_alive():  # pragma: no cover - stubborn child
        proc.kill()
        proc.join(timeout=5)


# ------------------------------------------------------------------ runner
def run_campaign(
    jobs,
    runner,
    *,
    workers: int | None = None,
    timeout: float | None = None,
    retries: int = DEFAULT_RETRIES,
    cache: ResultCache | str | Path | None = None,
    use_cache: bool = True,
    campaign_seed: int = 0,
    progress=None,
    poll_interval: float = 0.02,
    failure_dump_dir: str | Path | None = None,
    runlog: RunLog | str | Path | bool | None = None,
) -> CampaignResult:
    """Execute *jobs* through *runner* across worker processes.

    * ``runner(job, seed) -> payload`` must be a module-level callable and
      the payload picklable.
    * ``workers`` defaults to the number of CPUs this process may run on
      (:func:`default_workers`, capped by the number of jobs);
      ``workers=0``/``1`` still uses one worker process, so a hung job
      can always be killed.
    * ``timeout`` is per attempt, in seconds; a timed-out or crashed
      attempt is retried up to *retries* more times, then reported as a
      failure without aborting the campaign.
    * ``cache`` may be a :class:`ResultCache`, a directory path, or None
      (meaning the default directory); ``use_cache=False`` disables both
      lookup and storage.
    * ``progress`` is an optional ``callable(str)`` receiving one line
      per job completion.
    * The driver blocks until some attempt sends its result or its
      process exits, so a finished attempt's slot refills at once;
      ``poll_interval`` only bounds that wait while a ``timeout`` is
      armed, and so sets how late a timeout can be noticed.
    * ``failure_dump_dir`` enables flight-recorder failure dumps: each
      worker gets a per-job dump path under the directory, and a failed
      or hung job whose runner left a dump behind has its
      :attr:`JobOutcome.dump_path` set to it.
    * ``runlog`` selects the JSONL lifecycle log: a :class:`RunLog` or a
      path to append to, ``None`` (the default) to write one next to the
      result cache (``<cache-root>/runlog/``) when caching is enabled, or
      ``False`` to disable logging outright.  The written path lands in
      :attr:`CampaignResult.runlog_path`.
    """
    jobs = list(jobs)
    result = CampaignResult(outcomes=[None] * len(jobs))
    if not jobs:
        return result
    if use_cache:
        if not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
    else:
        cache = None
    emit = progress if callable(progress) else (lambda line: None)

    log: RunLog | None = None
    close_log = False
    if isinstance(runlog, RunLog):
        log = runlog
    elif runlog is False:
        log = None
    elif runlog is not None:
        log = RunLog(runlog)
        close_log = True
    elif cache is not None:
        # Second-resolution stamps collide for back-to-back campaigns in
        # one process (tests, scripted sweeps); the per-process sequence
        # number keeps every campaign in its own file.
        stamp = time.strftime("%Y%m%d-%H%M%S")
        seq = next(_RUNLOG_SEQ)
        log = RunLog(
            cache.root / "runlog"
            / f"campaign-{stamp}-{os.getpid()}-{seq}.jsonl"
        )
        close_log = True
    if log is not None:
        result.runlog_path = str(log.path)
        log.emit("campaign_begin", jobs=len(jobs))

    started = time.perf_counter()
    done = 0
    total = len(jobs)

    def finish(index: int, outcome: JobOutcome) -> None:
        nonlocal done
        done += 1
        result.outcomes[index] = outcome
        tag = "hit " if outcome.from_cache else {
            _OK: "ok  ", _FAILED: "FAIL", _TIMEOUT: "HUNG"
        }[outcome.status]
        detail = f"{outcome.wall_time:6.2f}s"
        if outcome.error:
            detail += f"  {outcome.error}"
        if outcome.attempts > 1:
            detail += f"  (attempt {outcome.attempts})"
        emit(f"[{done:>{len(str(total))}}/{total}] {tag} "
             f"{job_label(outcome.job)}  {detail}")
        if log is None:
            return
        label = job_label(outcome.job)
        engine = getattr(outcome.job, "engine", None)
        if outcome.from_cache:
            log.emit(
                "job_cache_hit", job=label, key=outcome.key,
                wall_s=outcome.wall_time,
                max_rss_bytes=outcome.max_rss_bytes, engine=engine,
            )
        elif outcome.ok:
            log.emit(
                "job_finished", job=label, key=outcome.key,
                wall_s=outcome.wall_time,
                max_rss_bytes=outcome.max_rss_bytes, engine=engine,
                attempts=outcome.attempts,
            )
        else:
            log.emit(
                "job_failed", job=label, key=outcome.key,
                status=outcome.status, error=outcome.error,
                wall_s=outcome.wall_time, attempts=outcome.attempts,
                dump=outcome.dump_path,
            )

    # Phase 1: serve everything we can from the cache.
    pending: deque = deque()
    for index, job in enumerate(jobs):
        key = job_key(job, runner)
        seed = derive_seed(campaign_seed, key)
        cached = _unwrap_cache_entry(
            cache.load(key) if cache is not None else None
        )
        if cached is not None:
            result.cache_hits += 1
            payload, cached_wall, cached_rss = cached
            finish(index, JobOutcome(
                job=job, key=key, status=_OK, payload=payload,
                attempts=0, wall_time=cached_wall, from_cache=True,
                seed=seed, max_rss_bytes=cached_rss,
            ))
        else:
            if cache is not None:
                result.cache_misses += 1
            pending.append((index, job, key, seed, 1))

    # Phase 2: fan the rest out across worker processes.
    if pending:
        from multiprocessing.connection import wait

        if workers is None:
            workers = default_workers()
        workers = max(1, min(workers, len(pending)))
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        running: list[_Running] = []
        try:
            while pending or running:
                while pending and len(running) < workers:
                    index, job, key, seed, attempt = pending.popleft()
                    dump_path = None
                    if failure_dump_dir is not None:
                        dump_path = str(
                            Path(failure_dump_dir) / f"{key[:16]}.flight.json"
                        )
                        # A dump left by an earlier attempt must not be
                        # attributed to this one.
                        Path(dump_path).unlink(missing_ok=True)
                    parent_conn, child_conn = ctx.Pipe(duplex=False)
                    proc = ctx.Process(
                        target=_worker_entry,
                        args=(child_conn, runner, job, seed, dump_path),
                        daemon=True,
                    )
                    proc.start()
                    child_conn.close()
                    if log is not None:
                        log.emit(
                            "job_started", job=job_label(job), key=key,
                            attempt=attempt,
                        )
                    running.append(
                        _Running(index, job, key, seed, attempt, proc,
                                 parent_conn, dump_path)
                    )
                wait(
                    [entry.conn for entry in running]
                    + [entry.proc.sentinel for entry in running],
                    timeout=None if timeout is None else poll_interval,
                )
                still: list[_Running] = []
                for entry in running:
                    status = error = payload = None
                    rss = 0
                    message = None
                    if entry.conn.poll():
                        try:
                            message = entry.conn.recv()
                        except EOFError:  # exited without sending a word
                            entry.proc.join()
                    if message is not None:
                        kind, body, _child_wall, rss = message
                        entry.proc.join()
                        if kind == _OK:
                            status, payload = _OK, body
                        else:
                            status, error = _FAILED, body
                    elif not entry.proc.is_alive():
                        entry.proc.join()
                        status = _FAILED
                        error = f"worker died (exitcode {entry.proc.exitcode})"
                    elif (timeout is not None
                          and time.perf_counter() - entry.started > timeout):
                        _terminate(entry.proc)
                        status = _TIMEOUT
                        error = f"timed out after {timeout:g}s"
                    if status is None:
                        still.append(entry)
                        continue
                    entry.conn.close()
                    wall = time.perf_counter() - entry.started
                    if status == _OK:
                        if cache is not None:
                            cache.store(
                                entry.key,
                                _wrap_cache_entry(payload, wall, rss),
                            )
                        finish(entry.index, JobOutcome(
                            job=entry.job, key=entry.key, status=_OK,
                            payload=payload, attempts=entry.attempt,
                            wall_time=wall, seed=entry.seed,
                            max_rss_bytes=rss,
                        ))
                    elif entry.attempt <= retries:
                        result.retries += 1
                        emit(f"[retry] {job_label(entry.job)}  {error}"
                             f"  (attempt {entry.attempt} of "
                             f"{retries + 1})")
                        if log is not None:
                            log.emit(
                                "job_retried", job=job_label(entry.job),
                                key=entry.key, attempt=entry.attempt,
                                error=error,
                            )
                        pending.append(
                            (entry.index, entry.job, entry.key, entry.seed,
                             entry.attempt + 1)
                        )
                    else:
                        dump = None
                        if (entry.dump_path is not None
                                and Path(entry.dump_path).exists()):
                            dump = entry.dump_path
                        finish(entry.index, JobOutcome(
                            job=entry.job, key=entry.key, status=status,
                            error=error, attempts=entry.attempt,
                            wall_time=wall, seed=entry.seed,
                            max_rss_bytes=rss, dump_path=dump,
                        ))
                running = still
        finally:
            for entry in running:  # pragma: no cover - interrupted campaign
                _terminate(entry.proc)
    result.wall_time = time.perf_counter() - started
    result.driver_max_rss_bytes = _max_rss_bytes()
    if log is not None:
        # Aggregate speedup: serial job wall (cache hits contribute the
        # wall recorded when their entry was produced) over campaign wall.
        job_wall = sum(
            o.wall_time for o in result.outcomes if o is not None
        )
        log.emit(
            "campaign_end",
            wall_s=result.wall_time,
            ok=len(result.completed),
            failed=len(result.failures),
            cache_hits=result.cache_hits,
            cache_misses=result.cache_misses,
            retries=result.retries,
            speedup=(
                round(job_wall / result.wall_time, 3)
                if result.wall_time > 0 else 0.0
            ),
            driver_max_rss_bytes=result.driver_max_rss_bytes,
        )
        if close_log:
            log.close()
    return result


def job_label(job) -> str:
    """One-line display label for a job (jobs may provide their own)."""
    label = getattr(job, "label", None)
    if callable(label):
        return label()
    if isinstance(label, str):
        return label
    return repr(job)
