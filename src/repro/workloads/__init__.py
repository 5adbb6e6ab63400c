"""Synthetic workloads standing in for the paper's benchmark suites."""

from repro.workloads.dsl import ProgramBuilder
from repro.workloads.engine import (
    DynamicWorkload,
    Phase,
    Req,
    ReqGenEngine,
    RequestStreamWorkload,
    Workload,
    WorkloadRegistryError,
    build_engine_workload,
    get_workload,
    is_engine_workload,
    register_workload,
    workload_names,
)
from repro.workloads.generator import WorkloadBuild, build_workload
from repro.workloads.message_passing import build_mp_workload
from repro.workloads.profiles import APP_ORDER, PROFILES, AppProfile, get_profile
from repro.workloads.record import (
    RecordedTrace,
    TraceReplayWorkload,
    record_trace,
)
from repro.workloads.suites import (
    Scenario,
    Suite,
    SuiteError,
    expand_suite_jobs,
    load_suite,
)

__all__ = [
    "ProgramBuilder",
    "build_mp_workload",
    "WorkloadBuild",
    "build_workload",
    "APP_ORDER",
    "PROFILES",
    "AppProfile",
    "get_profile",
    # Engine-workload layer.
    "Req",
    "ReqGenEngine",
    "Workload",
    "Phase",
    "DynamicWorkload",
    "RequestStreamWorkload",
    "WorkloadRegistryError",
    "register_workload",
    "workload_names",
    "is_engine_workload",
    "get_workload",
    "build_engine_workload",
    # Trace record/replay.
    "RecordedTrace",
    "TraceReplayWorkload",
    "record_trace",
    # Scenario suites.
    "Scenario",
    "Suite",
    "SuiteError",
    "expand_suite_jobs",
    "load_suite",
]
