"""repro — Minimal Multi-Threading (MMT), a MICRO 2010 reproduction.

A from-scratch, pure-Python implementation of the MMT micro-architecture
(Long, Franklin, Biswas, Ortiz, Oberg, Fan, Chong: *Minimal Multi-Threading:
Finding and Removing Redundant Instructions in Multi-Threaded Processors*)
together with every substrate the paper's evaluation depends on: a RISC ISA
and assembler, a value-accurate cycle-level SMT core, branch prediction, a
cache hierarchy, a Wattch-style energy model, synthetic SPMD workloads
standing in for the paper's benchmark suites, a trace profiler for the
motivation study, and a harness regenerating every table and figure.

Quick start::

    from repro import MMTConfig, MachineConfig, SMTCore, build_workload, get_profile

    build = build_workload(get_profile("ammp"), nctx=2)
    base = SMTCore(MachineConfig(num_threads=2), MMTConfig.base(), build.job())
    mmt = SMTCore(MachineConfig(num_threads=2), MMTConfig.mmt_fxr(), build.job())
    print(base.run().cycles / mmt.run().cycles)  # MMT speedup
"""

from repro.core.config import MMTConfig, WorkloadType
from repro.harness.experiment import geomean
from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.pipeline.config import MachineConfig
from repro.pipeline.job import Job
from repro.pipeline.smt import SimulationInvariantError, SMTCore
from repro.workloads.generator import build_workload
from repro.workloads.profiles import APP_ORDER, PROFILES, get_profile

__version__ = "1.0.0"

__all__ = [
    "MMTConfig",
    "WorkloadType",
    "geomean",
    "assemble",
    "Program",
    "MachineConfig",
    "Job",
    "SimulationInvariantError",
    "SMTCore",
    "build_workload",
    "APP_ORDER",
    "PROFILES",
    "get_profile",
    "__version__",
]
