"""Result persistence: dump figure data as JSON for external tooling.

The figure regenerators return lists of plain dicts; this module writes
them to disk with a small metadata header (figure id, scale, app list) so
plotting pipelines and regression archives can consume the repository's
outputs without importing it.
"""

from __future__ import annotations

import json
from pathlib import Path


def _jsonable(value):
    """Make a figure row JSON-serialisable (drop private keys, stringify
    non-scalar keys like the integer FHB sizes)."""
    if isinstance(value, dict):
        return {
            str(key): _jsonable(sub)
            for key, sub in value.items()
            if not (isinstance(key, str) and key.startswith("_"))
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


def dump_figure(
    figure_id: str,
    rows: list,
    path: str | Path,
    scale: float = 1.0,
    extra: dict | None = None,
) -> Path:
    """Write *rows* for *figure_id* to *path* as JSON; returns the path."""
    path = Path(path)
    payload = {
        "figure": figure_id,
        "paper": "Minimal Multi-Threading (MICRO 2010)",
        "scale": scale,
        "rows": _jsonable(rows),
    }
    if extra:
        payload.update(_jsonable(extra))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_figure(path: str | Path) -> dict:
    """Read a dumped figure back."""
    return json.loads(Path(path).read_text())


# ------------------------------------------------------------- campaigns
def summarize_campaign(result) -> dict:
    """Campaign-level aggregation of a :class:`~repro.harness.campaign.
    CampaignResult`: job counts by status, cache hit/miss counts, retry
    count, and wall-time statistics over the executed (non-cached) jobs.
    """
    outcomes = result.outcomes
    executed = [o for o in outcomes if not o.from_cache]
    # Failed/hung attempts cost wall time too — count them.
    walls = [o.wall_time for o in executed]
    rss = [o.max_rss_bytes for o in outcomes if o.max_rss_bytes > 0]
    summary = {
        "jobs": len(outcomes),
        "ok": sum(1 for o in outcomes if o.ok),
        "failed": sum(1 for o in outcomes if o.status == "failed"),
        "timeout": sum(1 for o in outcomes if o.status == "timeout"),
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "hit_rate": (
            result.cache_hits / len(outcomes) if outcomes else 0.0
        ),
        "retries": result.retries,
        "wall_time": result.wall_time,
        # The pre-dispatch pass (lint, oracle reports, builds) before it.
        "pass_wall_time": result.pass_wall_time,
        "job_wall_total": sum(walls),
        "job_wall_mean": sum(walls) / len(walls) if walls else 0.0,
        "job_wall_max": max(walls) if walls else 0.0,
        # Peak worker RSS in bytes (cache hits report the value recorded
        # when their entry was produced; zeros are "not measured").
        "job_rss_max_bytes": max(rss) if rss else 0,
        "job_rss_mean_bytes": sum(rss) / len(rss) if rss else 0.0,
        # Peak RSS of the driver process, which holds every result.
        "driver_rss_max_bytes": result.driver_max_rss_bytes,
        # JSONL lifecycle log written for this campaign, if any.
        "runlog": getattr(result, "runlog_path", None),
        # Static-oracle disagreements attached at aggregation time (see
        # experiment.validate_campaign_result); non-zero means a
        # simulation contradicted a proven bound.
        "oracle_violations": len(
            getattr(result, "validation_failures", ()) or ()
        ),
    }
    return summary


def campaign_failure_rows(result) -> list[dict]:
    """One row per failed/hung job, for reporting."""
    from repro.harness.campaign import job_label

    return [
        {
            "job": job_label(outcome.job),
            "status": outcome.status,
            "attempts": outcome.attempts,
            "error": outcome.error or "",
            "dump": outcome.dump_path or "",
        }
        for outcome in result.outcomes
        if not outcome.ok
    ]


def campaign_violation_rows(result) -> list[dict]:
    """One row per static-oracle validation failure, for reporting."""
    return [
        {
            "job": violation.job,
            "workload": violation.workload,
            "config": violation.config,
            "problems": "; ".join(violation.problems),
        }
        for violation in getattr(result, "validation_failures", ()) or ()
    ]


def dump_campaign(result, path: str | Path, extra: dict | None = None) -> Path:
    """Write a campaign's summary + per-job records to *path* as JSON."""
    path = Path(path)
    jobs = []
    for outcome in result.outcomes:
        record = {
            "job": repr(outcome.job),
            "key": outcome.key,
            "status": outcome.status,
            "from_cache": outcome.from_cache,
            "attempts": outcome.attempts,
            "wall_time": outcome.wall_time,
            "max_rss_bytes": outcome.max_rss_bytes,
            "seed": outcome.seed,
        }
        if outcome.error:
            record["error"] = outcome.error
        if outcome.dump_path:
            record["dump"] = outcome.dump_path
        payload = outcome.payload
        if payload is not None and hasattr(payload, "stats"):
            record["cycles"] = payload.stats.cycles
            record["ipc"] = payload.stats.ipc()
        jobs.append(record)
    document = {"summary": _jsonable(summarize_campaign(result)),
                "jobs": _jsonable(jobs)}
    violations = campaign_violation_rows(result)
    if violations:
        document["oracle_violations"] = _jsonable(violations)
    if extra:
        document.update(_jsonable(extra))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------- traces
def dump_trace(
    run,
    observer,
    path: str | Path,
    extra: dict | None = None,
) -> Path:
    """Write a ``repro trace`` run — final stats plus the interval time
    series and event tally — to *path* as JSON."""
    path = Path(path)
    stats = run.stats
    document = {
        "app": run.job.app,
        "config": run.job.config.name,
        "threads": run.job.threads,
        "cycles": stats.cycles,
        "ipc": stats.ipc(),
        "mode_breakdown": stats.mode_breakdown(),
        "event_counts": (
            observer.sink.counts() if observer.sink is not None else {}
        ),
        "intervals": (
            observer.interval.rows() if observer.interval is not None else []
        ),
    }
    if extra:
        document.update(_jsonable(extra))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(_jsonable(document), indent=2, sort_keys=True) + "\n"
    )
    return path
