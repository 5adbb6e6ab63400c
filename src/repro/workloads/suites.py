"""Data-declared scenario suites (``scenarios/*.toml``).

A suite file declares simulation scenarios as data — workload name,
configuration list, thread counts, scale, seed, optional engine — and
expands to a flat :class:`~repro.harness.experiment.CampaignJob` list,
so campaigns over registry workloads are version-controlled documents
rather than ad-hoc flag soup::

    [suite]
    name = "smoke"

    [[scenario]]
    workload = "dyn-bursty"
    configs = ["Base", "MMT-FXR"]
    threads = [2, 4]
    scale = 0.2
    seed = 7

Workload names resolve through the engine registry (including
``trace:PATH`` recorded traces) or the paper application profiles.
Every structural problem — unparseable TOML, an empty suite, unknown
keys, an unknown workload or configuration, a thread count the workload
refuses, a Limit config over a message-passing workload — raises
:class:`SuiteError` carrying the file path and scenario index, so the
CLI reports a one-line diagnosis instead of a traceback.

Recorded traces are content-addressed by the jobs themselves: a
:class:`~repro.harness.experiment.CampaignJob` carries its trace's
digest (``token``) in its campaign cache key, so regenerating a trace
file invalidates exactly the cached results built from the old
recording.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path

_SUITE_KEYS = {"name", "description"}
_SCENARIO_KEYS = {
    "workload", "configs", "threads", "scale", "seed", "engine", "tag",
}


class SuiteError(ValueError):
    """A scenario suite file that cannot be loaded or expanded."""

    def __init__(
        self, path, reason: str, scenario: int | None = None
    ) -> None:
        where = str(path)
        if scenario is not None:
            where += f" [scenario {scenario + 1}]"
        super().__init__(f"{where}: {reason}")
        self.path = str(path)
        self.scenario = scenario
        self.reason = reason


@dataclass(frozen=True)
class Scenario:
    """One suite entry: a workload crossed with configs and thread counts."""

    workload: str
    configs: tuple[str, ...]
    threads: tuple[int, ...]
    scale: float = 1.0
    seed: int | None = None
    #: ``None`` defers to the expansion-time default engine.
    engine: str | None = None
    tag: str = ""


@dataclass(frozen=True)
class Suite:
    """A named, validated collection of scenarios."""

    name: str
    path: str
    scenarios: tuple[Scenario, ...] = field(default_factory=tuple)

    def job_count(self) -> int:
        return sum(
            len(s.configs) * len(s.threads) for s in self.scenarios
        )


def _require(condition: bool, path, reason: str, scenario=None) -> None:
    if not condition:
        raise SuiteError(path, reason, scenario=scenario)


def check_threads(count) -> int:
    """*count* as a hardware thread count: an int in 1..``MAX_THREADS``.

    Raises ``ValueError`` naming the range otherwise.  Scenario suites
    and the CLI's ``--threads`` share this check.
    """
    from repro.core.itid import MAX_THREADS

    if (isinstance(count, bool) or not isinstance(count, int)
            or not 1 <= count <= MAX_THREADS):
        raise ValueError(
            f"a thread count must be an int in 1..{MAX_THREADS}, "
            f"not {count!r}"
        )
    return count


def check_scale(scale) -> float:
    """*scale* as a workload scale factor: a positive number.

    Raises ``ValueError`` otherwise.  Scenario suites and the CLI's
    ``--scale`` share this check.
    """
    if (isinstance(scale, bool) or not isinstance(scale, (int, float))
            or not scale > 0):
        raise ValueError(
            f"a workload scale must be a positive number, not {scale!r}"
        )
    return float(scale)


def _checked(check, value, path, key: str, scenario: int):
    """``check(value)``, raising a :class:`SuiteError` that names *key*
    where the check fails."""
    try:
        return check(value)
    except ValueError as exc:
        raise SuiteError(path, f"'{key}': {exc}", scenario=scenario) from None


def _resolve_workload(name: str, path, index: int):
    """Workload object for registry names, ``None`` for app profiles."""
    from repro.workloads.engine import (
        WorkloadRegistryError,
        get_workload,
        is_engine_workload,
    )
    from repro.workloads.profiles import PROFILES

    if is_engine_workload(name):
        try:
            return get_workload(name)
        except WorkloadRegistryError as exc:
            raise SuiteError(path, str(exc), scenario=index) from exc
    if name in PROFILES:
        return None
    known = sorted(PROFILES)
    from repro.workloads.engine import workload_names

    raise SuiteError(
        path,
        f"unknown workload {name!r}; registry workloads: "
        f"{', '.join(workload_names())}; app profiles: {', '.join(known)}",
        scenario=index,
    )


def load_suite(path: str | Path) -> Suite:
    """Parse and validate one ``scenarios/*.toml`` file."""
    from repro.core.config import WorkloadType
    from repro.harness.experiment import CONFIG_FACTORIES
    from repro.pipeline.fast import ENGINES

    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise SuiteError(path, f"cannot read suite file: {exc}") from exc
    try:
        document = tomllib.loads(raw.decode("utf-8"))
    except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
        raise SuiteError(path, f"not valid TOML: {exc}") from exc

    head = document.get("suite", {})
    _require(isinstance(head, dict), path, "[suite] must be a table")
    unknown = set(head) - _SUITE_KEYS
    _require(
        not unknown, path,
        f"unknown [suite] key(s): {', '.join(sorted(unknown))}",
    )
    stray = set(document) - {"suite", "scenario"}
    _require(
        not stray, path,
        f"unknown top-level table(s): {', '.join(sorted(stray))}",
    )
    name = head.get("name", path.stem)
    _require(
        isinstance(name, str) and name != "",
        path, "[suite] name must be a non-empty string",
    )

    entries = document.get("scenario", [])
    _require(
        isinstance(entries, list) and len(entries) > 0,
        path, "suite declares no [[scenario]] entries",
    )

    scenarios: list[Scenario] = []
    for index, entry in enumerate(entries):
        _require(
            isinstance(entry, dict), path,
            "[[scenario]] must be a table", scenario=index,
        )
        unknown = set(entry) - _SCENARIO_KEYS
        _require(
            not unknown, path,
            f"unknown scenario key(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(_SCENARIO_KEYS))})",
            scenario=index,
        )
        workload_name = entry.get("workload")
        _require(
            isinstance(workload_name, str) and workload_name != "",
            path, "scenario needs a 'workload' name", scenario=index,
        )
        workload = _resolve_workload(workload_name, path, index)

        configs = entry.get("configs", ["Base"])
        _require(
            isinstance(configs, list) and configs
            and all(isinstance(c, str) for c in configs),
            path, "'configs' must be a non-empty list of config names",
            scenario=index,
        )
        for config in configs:
            _require(
                config in CONFIG_FACTORIES, path,
                f"unknown config {config!r} "
                f"(known: {', '.join(CONFIG_FACTORIES)})",
                scenario=index,
            )
            if (
                workload is not None
                and CONFIG_FACTORIES[config]().limit_identical
                and workload.wtype is WorkloadType.MESSAGE_PASSING
            ):
                raise SuiteError(
                    path,
                    f"config {config!r} (limit study) cannot run "
                    f"message-passing workload {workload_name!r}: identical "
                    "clones would deadlock on rank-0 traffic",
                    scenario=index,
                )

        threads = entry.get("threads", [2])
        _require(
            isinstance(threads, list) and threads, path,
            "'threads' must be a non-empty list of thread counts",
            scenario=index,
        )
        for count in threads:
            _checked(check_threads, count, path, "threads", index)
        if workload is not None:
            for count in threads:
                _require(
                    workload.valid_nctx(count), path,
                    f"workload {workload_name!r} does not support "
                    f"nctx={count}",
                    scenario=index,
                )

        scale = _checked(check_scale, entry.get("scale", 1.0), path, "scale",
                         index)
        seed = entry.get("seed")
        _require(
            seed is None
            or (isinstance(seed, int) and not isinstance(seed, bool)),
            path, "'seed' must be an integer", scenario=index,
        )
        engine = entry.get("engine")
        _require(
            engine is None or engine in ENGINES,
            path,
            f"unknown engine {engine!r} (known: {', '.join(ENGINES)})",
            scenario=index,
        )
        tag = entry.get("tag", "")
        _require(
            isinstance(tag, str), path, "'tag' must be a string",
            scenario=index,
        )
        scenarios.append(Scenario(
            workload=workload_name,
            configs=tuple(configs),
            threads=tuple(threads),
            scale=scale,
            seed=seed,
            engine=engine,
            tag=tag,
        ))
    return Suite(name=name, path=str(path), scenarios=tuple(scenarios))


def expand_suite_jobs(suite: Suite, default_engine: str = "reference"):
    """Expand *suite* to the flat :class:`CampaignJob` list it declares.

    Scenario ``engine`` keys win over *default_engine* (the CLI's
    ``--engine`` flag).
    """
    from repro.harness.experiment import CONFIG_FACTORIES, CampaignJob

    jobs = []
    for scenario in suite.scenarios:
        for config in scenario.configs:
            for count in scenario.threads:
                jobs.append(CampaignJob(
                    app=scenario.workload,
                    config=CONFIG_FACTORIES[config](),
                    threads=count,
                    scale=scenario.scale,
                    seed=scenario.seed,
                    tag=scenario.tag,
                    engine=scenario.engine or default_engine,
                ))
    return jobs
