"""One fig6 campaign in a fresh interpreter: the benchmark's unit of work.

``run.py`` starts this script once per timed campaign, so no in-process
memo (run memo, oracle memo, manifest memo) carries over between runs.
The result cache is whatever ``REPRO_CACHE_DIR`` names: an empty
directory for a cold run, one a previous campaign filled for a warm run.
Prints one JSON line: timings, every point's outcome with a digest of
its statistics and outputs, and — with ``--trace`` — the layer trace.

    PYTHONPATH=src python3 campaignbench/child.py --engine fast --seed 0
"""

import argparse
import hashlib
import json
import time


def fig6_jobs(engine, seed):
    """The harness's Fig 6 point set on *engine*: 16 apps x {Base,
    MMT-FXR} x {2T, 4T} at scale 1.0."""
    from dataclasses import replace

    from repro.harness import figure_points

    # Seed 0 is the calibrated workload set (the generator's
    # name-derived seeds); any other seed reseeds every program.
    job_seed = None if seed == 0 else seed
    return [replace(job, engine=engine, seed=job_seed)
            for job in figure_points("fig6")]


def _canonical(value) -> str:
    """``repr`` with dict entries sorted: equal statistics hash equal
    whatever order an engine filled its per-PC counters in."""
    if isinstance(value, dict):
        items = sorted(f"{_canonical(k)}: {_canonical(v)}"
                       for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_canonical(v) for v in value) + "]"
    return repr(value)


def _digest(run) -> str:
    """Content hash of a point's statistics and architectural outputs."""
    blob = _canonical([vars(run.stats), run.outputs])
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _max_rss_bytes() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--engine", choices=("reference", "fast"),
                        default="reference")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t_import = time.perf_counter()
    import repro.harness as harness

    t_jobs = time.perf_counter()
    jobs = fig6_jobs(args.engine, args.seed)
    t_ready = time.perf_counter()
    record = {
        "setup_s": t_ready - t_import,
        "import_s": t_jobs - t_import,
    }
    if args.setup_only:
        record["fingerprint"] = harness.code_fingerprint()
        print(json.dumps(record))
        return

    tracer = side = None
    if args.trace:
        from layers import Tracer, install  # beside this script

        tracer = Tracer()
        side = install(tracer)
        run_points = tracer.wrap("experiment.run_points", harness.run_points)
    else:
        run_points = harness.run_points

    started = time.perf_counter()
    result = run_points(jobs, workers=args.workers, campaign_seed=args.seed)
    wall = time.perf_counter() - started

    outcomes = []
    for outcome in result.outcomes:
        row = {
            "label": outcome.job.label(),
            "key": outcome.key,
            "app": outcome.job.app,
            "config": outcome.job.config.name,
            "threads": outcome.job.threads,
            "status": outcome.status,
            "error": outcome.error,
            "from_cache": outcome.from_cache,
            "wall_s": outcome.wall_time,
            "rss_bytes": outcome.max_rss_bytes,
        }
        if outcome.ok:
            run = outcome.payload
            energy = run.energy
            row.update(
                digest=_digest(run),
                cycles=run.stats.cycles,
                insts=run.stats.committed_thread_insts,
                energy_per_inst=(
                    (energy.cache + energy.mmt_overhead + energy.other)
                    / max(1, run.stats.committed_thread_insts)
                ),
            )
        outcomes.append(row)

    record.update(
        engine=args.engine,
        workers=args.workers,
        points=len(jobs),
        wall_s=wall,
        campaign_wall_s=result.wall_time,
        cache_hits=result.cache_hits,
        cache_misses=result.cache_misses,
        retries=result.retries,
        violations=[v.job for v in result.validation_failures],
        parent_rss_bytes=_max_rss_bytes(),
        fingerprint=harness.code_fingerprint(),
        outcomes=outcomes,
    )
    if tracer is not None:
        label_of_key = {row["key"]: row["label"] for row in outcomes}
        parent = tracer.export()
        for span in parent["spans"]:
            span[4] = label_of_key.get(span[4], span[4])
        record["trace"] = {
            "parent": parent,
            "workers": side["worker"],
            "entry_bytes": side["entry_bytes"],
        }
    print(json.dumps(record))


if __name__ == "__main__":
    main()
