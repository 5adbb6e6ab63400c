"""Campaign benchmark: the paper's Fig 6 point set as a parallel campaign.

Runs 16 apps x {Base, MMT-FXR} x {2T, 4T} at scale 1.0 (64 points)
through ``repro.harness.experiment.run_points``, end to end, and reports
what a user of the harness sees: set-up time, points per second,
per-point latency, peak memory, failures, and how close the simulated
results come to the paper.  Usage, from the repository root::

    python3 campaignbench/run.py --workload fig6-cold-ref --seed 0 \\
        --seconds 30 --trace 0

Every timed campaign runs in a fresh interpreter (``child.py``) with its
own result cache directory, as a closed batch: all points are enqueued
at once from one driver process with one worker per core.  ``--trace 1``
runs the workload once untraced and once with every layer wrapped
(``layers.py``) and reports the per-layer breakdown instead of the
end-to-end metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Everything
the benchmark writes stays under ``.campaignbench/`` in the checkout.
See ``README.md`` beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".campaignbench"

#: workload -> (engine, served from a filled cache)
WORKLOADS = {
    "fig6-cold-ref": ("reference", False),
    "fig6-cold-fast": ("fast", False),
    "fig6-warm-fast": ("fast", True),
}
OTHER_ENGINE = {"reference": "fast", "fast": "reference"}

#: Paper targets (EXPERIMENTS.md): geomean MMT-FXR/Base cycle speedup
#: per thread count, and MMT-4T/SMT-4T energy per job.
PAPER_SPEEDUP = {2: 1.15, 4: 1.25}
PAPER_ENERGY_4T = 0.66

#: Fresh-process set-ups per run, half before the campaigns and half
#: after, so a burst of load on the host skews fewer of them; setup_s is
#: their median.
SETUP_REPS = 12
#: A run exits within RUN_LIMIT_S seconds whatever happens (children are
#: killed at that deadline), and starts no timed campaign that would end
#: after RUN_BUDGET_S.
RUN_LIMIT_S = 170
RUN_BUDGET_S = 150
_deadline = time.monotonic() + RUN_LIMIT_S

#: HostProfiler regions of the fast engine (repro.obs.prof).
FAST_REGIONS = ("split", "lvip_verify", "control", "hints", "oracle_refill",
                "store_commit", "squash")
REF_STAGES = ("fetch", "rename", "issue", "writeback", "commit", "lsq",
              "step_other")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# ------------------------------------------------------------ children
def run_child(args: list[str], cache_dir: Path | None = None) -> dict:
    """Run ``child.py`` in its own session; returns its JSON record.

    The child's process group is killed afterwards, so no campaign
    worker outlives the child, whatever way it ended.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    env["TMPDIR"] = str(WORK / "tmp")
    env.pop("REPRO_CACHE_DIR", None)
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, _deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"run exceeded {RUN_LIMIT_S}s in child {args}") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def fresh_dir() -> Path:
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="cache-", dir=WORK / "tmp"))


def campaign(common: list[str], cache_dir: Path | None, traced: bool) -> dict:
    """One campaign; a cold one (no *cache_dir*) gets an empty cache
    that is deleted afterwards."""
    cold = cache_dir is None
    cache = fresh_dir() if cold else cache_dir
    try:
        return run_child(common + (["--trace"] if traced else []), cache)
    finally:
        if cold:
            shutil.rmtree(cache, ignore_errors=True)


def digests(record: dict) -> dict[str, str]:
    return {o["label"]: o["digest"] for o in record["outcomes"] if "digest" in o}


def clean(record: dict) -> bool:
    """No point of *record* failed or violated its oracle."""
    return not record["violations"] and all(
        o["status"] == "ok" for o in record["outcomes"]
    )


def _digest_file(engine: str, seed: int, fingerprint: str) -> Path:
    # Keyed by the simulator's source and by the code that computes the
    # digests, so neither can change under a remembered entry.
    digester = hashlib.sha256((HERE / "child.py").read_bytes()).hexdigest()
    return (WORK / "state"
            / f"{fingerprint}-{digester[:8]}-{engine}-s{seed}.json")


def remember_digests(engine: str, seed: int, fingerprint: str,
                     record: dict) -> None:
    """Keep a clean campaign's per-point digests for later checks."""
    path = _digest_file(engine, seed, fingerprint)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(digests(record)))


def engine_digests(engine: str, seed: int, nproc: int,
                   fingerprint: str) -> dict[str, str]:
    """Per-point digests of *engine* on *seed*.

    They are remembered per source fingerprint under
    ``.campaignbench/state``, so each (engine, seed) pair is simulated
    for checking at most once per code version.
    """
    try:
        return json.loads(_digest_file(engine, seed, fingerprint).read_text())
    except (OSError, ValueError):
        pass
    record = campaign(
        ["--engine", engine, "--seed", str(seed), "--workers", str(nproc)],
        None, traced=False,
    )
    if record["fingerprint"] != fingerprint:
        raise BenchError("source changed while the benchmark ran")
    if clean(record):
        remember_digests(engine, seed, fingerprint, record)
    return digests(record)


# -------------------------------------------------------------- checks
def failing_points(record: dict, expected: dict[str, str], why: str,
                   problems: list[str]) -> set[str]:
    """Labels of points in *record* that failed, violated their oracle
    or whose digest differs from *expected*; reasons go to *problems*."""
    bad = set()
    for o in record["outcomes"]:
        if o["status"] != "ok":
            bad.add(o["label"])
            problems.append(f"{o['label']}: {o['status']}: {o['error']}")
        elif expected and expected.get(o["label"]) != o["digest"]:
            bad.add(o["label"])
            problems.append(f"{o['label']}: SimStats differ from {why}")
    for label in record["violations"]:
        bad.add(label)
        problems.append(f"{label}: oracle violation")
    return bad


def accuracy(record: dict) -> dict[str, float]:
    """Simulated-time accuracy against the paper (EXPERIMENTS.md)."""
    points = {(o["app"], o["config"], o["threads"]): o
              for o in record["outcomes"] if "digest" in o}
    # Apps with a failed point drop out (the failure is counted apart).
    apps = sorted(
        app for app in {app for app, _, _ in points}
        if all((app, config, threads) in points
               for config in ("Base", "MMT-FXR") for threads in (2, 4))
    )
    if not apps:
        raise BenchError("no app completed all four points")

    def geomean(values):
        values = list(values)
        return math.exp(sum(math.log(v) for v in values) / len(values))

    speedup = {
        t: geomean(points[(a, "Base", t)]["cycles"]
                   / points[(a, "MMT-FXR", t)]["cycles"] for a in apps)
        for t in PAPER_SPEEDUP
    }
    energy = geomean(points[(a, "MMT-FXR", 4)]["energy_per_inst"]
                     / points[(a, "Base", 4)]["energy_per_inst"] for a in apps)
    speedup_err = statistics.fmean(
        abs(speedup[t] - paper) / paper for t, paper in PAPER_SPEEDUP.items()
    )
    return {
        "speedup_2t": speedup[2],
        "speedup_4t": speedup[4],
        "energy_ratio_4t": energy,
        "speedup_err": speedup_err,
        "energy_err": abs(energy - PAPER_ENERGY_4T) / PAPER_ENERGY_4T,
    }


# ------------------------------------------------------------- metrics
def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of *n* samples beyond."""
    return max(1, math.floor(100 * (1 - 10 / n)))


def end_to_end(setups, reps, failed, attempted) -> tuple[dict, dict]:
    # Latency percentiles are taken per campaign, then the median over
    # campaigns, so their definition does not change with how many
    # campaigns fit in a run.  (A warm run's outcomes are cache hits
    # whose wall time is the one recorded when the point was simulated.)
    samples = [
        sorted(o["wall_s"] for o in r["outcomes"] if o["status"] == "ok")
        for r in reps
    ]
    if min(map(len, samples)) <= 10:
        raise BenchError("too few points completed to time a campaign")
    pct = tail_percentile(len(samples[0]))
    peak = [
        max([r["parent_rss_bytes"]] + [
            o["rss_bytes"] for o in r["outcomes"] if not o["from_cache"]
        ]) for r in reps
    ]
    acc = accuracy(reps[0])
    tail = statistics.median(
        statistics.quantiles(x, n=100, method="inclusive")[pct - 1]
        for x in samples
    )
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "points_per_s": (  # completed points over the run_points wall
            statistics.median(
                len(x) / r["wall_s"] for x, r in zip(samples, reps)
            ), "1/s"),
        "point_p50_s": (
            statistics.median(statistics.median(x) for x in samples), "s"),
        "peak_rss_mb": (statistics.median(peak) / 2**20, "MiB"),
        "ok_frac": (1 - failed / attempted, "frac"),
        "speedup_acc": (1 - acc["speedup_err"], "frac"),
        "energy_acc": (1 - acc["energy_err"], "frac"),
    }
    info = dict(acc, fail_frac=failed / attempted, point_tail_s=tail,
                point_tail_percentile=pct, point_samples=len(samples[0]),
                campaigns=len(reps),
                campaign_walls=[r["wall_s"] for r in reps])
    return metrics, info


def per_layer(setups, untraced, traced) -> dict:
    trace = traced["trace"]
    self_s, incl_s, calls = Counter(), Counter(), Counter()
    for part in [trace["parent"], *trace["workers"].values()]:
        self_s.update(part["self_s"])
        incl_s.update(part["incl_s"])
        calls.update(part["calls"])
    points = traced["points"]
    simulated = [o for o in traced["outcomes"] if not o["from_cache"]
                 and o["status"] == "ok"]
    insts = sum(o["insts"] for o in simulated)
    sizes = trace["entry_bytes"]

    def ns_per_inst(seconds):
        return seconds / insts * 1e9 if insts else 0.0

    m = {
        "process.import_s": (
            statistics.median(s["import_s"] for s in setups), "s"),
        "campaign.dispatch_s": (self_s["campaign.dispatch"], "s"),
        "campaign.key_s": (self_s["campaign.key"], "s"),
        "campaign.cache_load_s": (self_s["campaign.cache_load"], "s"),
        "campaign.cache_store_s": (self_s["campaign.cache_store"], "s"),
        "campaign.payload_kb": (
            statistics.fmean(sizes) / 1024 if sizes else 0.0, "KiB"),
        "campaign.pool_busy_frac": (
            sum(o["wall_s"] for o in simulated)
            / (traced["workers"] * traced["campaign_wall_s"]), "frac"),
        "campaign.retries": (traced["retries"], "count"),
        "experiment.lint_s": (self_s["experiment.lint"], "s"),
        "experiment.validate_s": (self_s["experiment.validate"], "s"),
        "workloads.build_s": (self_s["workloads.build"], "s"),
        "workloads.builds_per_point": (
            calls["workloads.build"] / points, "count"),
        "analysis.lint_s": (self_s["analysis.lint"], "s"),
        "analysis.oracle_s": (self_s["analysis.oracle"], "s"),
        "analysis.oracle_runs": (calls["analysis.oracle"], "count"),
        "analysis.specialize_s": (self_s["analysis.specialize"], "s"),
        "analysis.specialize_runs": (calls["analysis.specialize"], "count"),
        "pipeline.run_s": (incl_s["pipeline.run"], "s"),
        "pipeline.ns_per_inst": (
            ns_per_inst(incl_s["pipeline.run"]), "ns/inst"),
        "pipeline.construct_s": (self_s["pipeline.construct"], "s"),
    }
    for stage in REF_STAGES:
        m[f"pipeline.{stage}_s"] = (self_s[f"pipeline.{stage}"], "s")
    m["fast.run_s"] = (incl_s["fast.run"], "s")
    m["fast.ns_per_inst"] = (ns_per_inst(incl_s["fast.run"]), "ns/inst")
    m["fast.loop_s"] = (self_s["fast.loop"], "s")
    for region in FAST_REGIONS:
        m[f"fast.{region}_s"] = (self_s[f"fast.{region}"], "s")
        m[f"fast.{region}_calls"] = (calls[f"fast.{region}"], "count")
    m["power.energy_s"] = (self_s["power.energy"], "s")
    m["pipeline.cycles"] = (
        sum(o.get("cycles", 0) for o in traced["outcomes"]), "count")
    m["pipeline.insts"] = (
        sum(o.get("insts", 0) for o in traced["outcomes"]), "count")
    m["trace.overhead_frac"] = (
        traced["wall_s"] / untraced["wall_s"] - 1, "frac")
    return m


def perturbation(untraced: dict, traced: dict) -> list[str]:
    """Ways the traced run differs from the untraced one (must be none)."""
    problems = [
        f"{field} {untraced[field]} untraced vs {traced[field]} traced"
        for field in ("cache_hits", "cache_misses")
        if untraced[field] != traced[field]
    ]
    for field in ("cycles", "insts"):
        a = sum(o.get(field, 0) for o in untraced["outcomes"])
        b = sum(o.get(field, 0) for o in traced["outcomes"])
        if a != b:
            problems.append(f"pipeline.{field} {a} untraced vs {b} traced")
    return problems


# ---------------------------------------------------------- provenance
def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ----------------------------------------------------------------- run
def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    engine, warm = WORKLOADS[workload]
    nproc = len(os.sched_getaffinity(0))
    began = time.perf_counter()
    setups = [run_child(["--setup-only"]) for _ in range(SETUP_REPS // 2)]
    fingerprint = setups[0]["fingerprint"]
    common = ["--engine", engine, "--seed", str(seed), "--workers", str(nproc)]

    def check(record: dict) -> None:
        if record["fingerprint"] != fingerprint:
            raise BenchError("source changed while the benchmark ran")

    warm_cache = fresh_dir() if warm else None
    try:
        if warm:
            # Preparation, excluded from every metric: the cold-fast
            # campaign whose results the warm runs re-request.
            fill = campaign(common, warm_cache, traced=False)
            check(fill)
            expected, why = digests(fill), "the run that filled the cache"
            if clean(fill):
                remember_digests(engine, seed, fingerprint, fill)
        else:
            other = OTHER_ENGINE[engine]
            expected = engine_digests(other, seed, nproc, fingerprint)
            why = f"the {other} engine"
        reps: list[dict] = []
        traced = None
        if trace:
            reps.append(campaign(common, warm_cache, traced=False))
            traced = campaign(common, warm_cache, traced=True)
            check(traced)
        else:
            reps_began = time.perf_counter()
            while True:
                started = time.perf_counter()
                reps.append(campaign(common, warm_cache, traced=False))
                now = time.perf_counter()
                last = now - started
                if (now - reps_began + last > seconds
                        or now - began + last > RUN_BUDGET_S):
                    break
        for record in reps:
            check(record)
    finally:
        if warm_cache is not None:
            shutil.rmtree(warm_cache, ignore_errors=True)

    setups += [run_child(["--setup-only"]) for _ in range(SETUP_REPS // 2)]
    problems: list[str] = []
    attempted = failed = 0
    for record in reps:
        bad = failing_points(record, expected, why, problems)
        attempted += record["points"]
        failed += len(bad)
        if not warm and not bad:
            remember_digests(engine, seed, fingerprint, record)
    perturbed: list[str] = []
    if traced is not None:
        bad = failing_points(traced, digests(reps[0]), "the untraced run",
                             problems)
        attempted += traced["points"]
        failed += len(bad)
        perturbed = perturbation(reps[0], traced)

    metrics, info = end_to_end(setups, reps, failed, attempted)
    if traced is not None:
        info["end_to_end"] = metrics
        metrics = per_layer(setups, reps[0], traced)
    first = reps[0]
    info.update(
        cache_hits=first["cache_hits"], cache_misses=first["cache_misses"],
        retries=first["retries"],
        cycles=sum(o.get("cycles", 0) for o in first["outcomes"]),
        insts=sum(o.get("insts", 0) for o in first["outcomes"]),
    )
    return {
        "provenance": {
            "workload": workload,
            "seed": seed,
            "calibrated_seed": seed == 0,
            "nproc": nproc,
            "workers": first["workers"],
            "points": first["points"],
            "python": platform.python_version(),
            "git_commit": git_commit(),
            "source_fingerprint": fingerprint,
            "trace": trace,
            "point_tail_percentile": info["point_tail_percentile"],
            "point_samples": info["point_samples"],
        },
        "correct": failed == 0 and not perturbed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
        "problems": problems + perturbed,
        "spans": traced and spans_of(traced),
    }


def spans_of(traced: dict) -> list[dict]:
    """Every recorded span, parent side first; parents index the list
    of their own process."""
    trace = traced["trace"]
    parts = [("parent", trace["parent"])] + [
        (f"worker:{key[:16]}", part) for key, part in trace["workers"].items()
    ]
    return [
        {"process": process, "name": name, "start": start, "end": end,
         "parent": parent, "point": point}
        for process, part in parts
        for name, start, end, parent, point in part["spans"]
    ]


def report(result: dict, seconds: int) -> None:
    """Human-readable lines, then the one-line JSON result."""
    prov, info = result["provenance"], result["info"]
    print(f"campaignbench {prov['workload']}: {prov['points']} points, "
          f"{prov['workers']} workers, seed {prov['seed']}, "
          f"run_seconds {seconds}, trace {int(prov['trace'])}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    if prov["calibrated_seed"]:
        print("accuracy: seed 0 runs the calibrated workload set")
    else:
        print("accuracy: speedup_err and energy_err on this non-default seed "
              "are error on data held back from the profile calibration")
    print(f"  speedup 2T {info['speedup_2t']:.4f} (paper 1.15), "
          f"4T {info['speedup_4t']:.4f} (paper 1.25): "
          f"speedup_err {info['speedup_err']:.4f}")
    print(f"  energy MMT-4T/SMT-4T {info['energy_ratio_4t']:.4f} "
          f"(paper 0.66): energy_err {info['energy_err']:.4f}")
    print(f"correctness: fail_frac {info['fail_frac']:.4f} "
          f"({result['failed']} of {result['attempted']} points), "
          f"cache hits {info['cache_hits']} misses {info['cache_misses']}, "
          f"retries {info['retries']}, simulated cycles {info['cycles']} "
          f"insts {info['insts']}")
    for line in result["problems"]:
        print(f"  FAIL {line}")
    if "end_to_end" in info:
        for name, (value, unit) in info["end_to_end"].items():
            print(f"  untraced {name:<26} {value:14.6f} {unit}")
    print(f"point_tail_s {info['point_tail_s']:.6f} s: "
          f"p{prov['point_tail_percentile']} of {prov['point_samples']} "
          f"point latencies per campaign, median over {info['campaigns']} "
          f"campaign(s) (reported, not gated: too noisy for a bound)")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<35} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fig 6 campaign benchmark (see README.md)."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="0 = calibrated workloads; others reseed them")
    parser.add_argument("--seconds", type=int, default=30,
                        help="timed campaigns run until this is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    global _deadline
    _deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"campaignbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as exc:
        print(f"campaignbench: {exc}", file=sys.stderr)
        return 1
    stem = f"{args.workload}-s{args.seed}-trace{args.trace}"
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    spans = result.pop("spans")
    if spans:
        (out / f"{stem}.spans.json").write_text(json.dumps(spans))
    (out / f"{stem}.json").write_text(json.dumps(result, indent=1))
    report(result, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
