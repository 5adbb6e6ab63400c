"""Differential testing: functional executor vs cycle-level pipeline.

Random (generated) programs run through both the architecturally exact
:class:`FunctionalExecutor` and the detailed SMT/MMT pipeline; final
architectural register and memory state must match exactly across
single-thread, SMT (Base) and MMT (merged-execution) configurations.
Everything is seeded, so failures reproduce.
"""

import pytest

from repro.core.config import MMTConfig
from repro.func.executor import FunctionalExecutor
from repro.pipeline.config import MachineConfig
from repro.pipeline.smt import SMTCore
from repro.workloads.generator import build_workload
from repro.workloads.profiles import get_profile

SCALE = 0.1

#: (profile, contexts, generator seed) — 20 seeded random programs
#: spanning every application family, multi-execution and multi-threaded
#: workload types, and 1/2/4 hardware contexts.
CASES = [
    ("ammp", 1, 11),
    ("ammp", 2, 12),
    ("ammp", 4, 13),
    ("equake", 2, 21),
    ("mcf", 2, 31),
    ("mcf", 4, 32),
    ("twolf", 2, 41),
    ("vpr", 4, 51),
    ("vortex", 2, 61),
    ("libsvm", 4, 71),
    ("lu", 1, 81),
    ("lu", 2, 82),
    ("lu", 4, 83),
    ("fft", 2, 91),
    ("ocean", 4, 101),
    ("water-ns", 2, 111),
    ("blackscholes", 4, 121),
    ("swaptions", 2, 131),
    ("fluidanimate", 4, 141),
    ("canneal", 2, 151),
]

#: Single-thread runs (nctx == 1) exercise the plain core; Base at
#: nctx >= 2 is SMT; the MMT configurations merge fetch and execution.
CONFIGS = [
    ("Base", MMTConfig.base()),
    ("MMT-FXR", MMTConfig.mmt_fxr()),
]


def functional_reference(build):
    """Final (regs, memory snapshots) after architecturally exact runs."""
    job = build.job()
    states = job.make_states()
    for state in states:
        FunctionalExecutor(state).run(max_steps=5_000_000)
    regs = [list(state.regs) for state in states]
    mems = [space.snapshot() for space in job.address_spaces]
    return regs, mems


def run_pipeline(build, config, nctx, core_cls=SMTCore, obs=None, trace=None):
    """Run one cycle-level simulation to completion; returns (core, job).

    The shared executor of this suite, the oracle-soundness suite
    (``test_lvip_soundness``) and the fast-engine differential suite
    (``test_fastpath_differential``).  The core checks every issue and
    writeback against the oracle, so any MMT merging error raises instead
    of corrupting the comparison.  *core_cls*
    selects the engine (default: the reference core); *obs* attaches an
    observer; *trace* is the fast engine's per-cycle trace sink.
    """
    job = build.limit_job() if config.limit_identical else build.job()
    machine = MachineConfig(num_threads=max(2, nctx))
    kwargs = {}
    if obs is not None:
        kwargs["obs"] = obs
    if trace is not None:
        kwargs["trace"] = trace
    core = core_cls(machine, config, job, **kwargs)
    core.run()
    assert all(state.halted for state in core.states)
    return core, job


def pipeline_final_state(build, config, nctx):
    """Final (regs, memory snapshots) after a cycle-level run."""
    core, job = run_pipeline(build, config, nctx)
    regs = [list(state.regs) for state in core.states]
    mems = [space.snapshot() for space in job.address_spaces]
    return regs, mems


@pytest.mark.parametrize("app,nctx,seed", CASES,
                         ids=[f"{a}-{n}t-s{s}" for a, n, s in CASES])
def test_pipeline_matches_functional_execution(app, nctx, seed):
    build = build_workload(get_profile(app), nctx, scale=SCALE, seed=seed)
    ref_regs, ref_mems = functional_reference(build)
    for label, config in CONFIGS:
        got_regs, got_mems = pipeline_final_state(build, config, nctx)
        for ctx in range(nctx):
            assert got_regs[ctx] == ref_regs[ctx], (
                f"{app}/{label}: register state of context {ctx} diverged"
            )
        for ctx, (got, want) in enumerate(zip(got_mems, ref_mems)):
            assert got == want, (
                f"{app}/{label}: memory of context {ctx} diverged"
            )


def test_limit_configuration_matches_functional_clones():
    """The Limit machine's identical clones also retire exact state."""
    build = build_workload(get_profile("mcf"), 4, scale=SCALE, seed=7)

    ref_job = build.limit_job()
    for state in ref_job.make_states():
        FunctionalExecutor(state).run(max_steps=5_000_000)
    ref_mems = [space.snapshot() for space in ref_job.address_spaces]

    job = build.limit_job()
    core = SMTCore(MachineConfig(num_threads=4), MMTConfig.limit(), job)
    core.run()
    got_mems = [space.snapshot() for space in job.address_spaces]
    assert got_mems == ref_mems


def test_same_seed_reproduces_same_program():
    def text(build):
        return [repr(inst) for inst in build.program.instructions]

    a = build_workload(get_profile("vpr"), 2, scale=SCALE, seed=5)
    b = build_workload(get_profile("vpr"), 2, scale=SCALE, seed=5)
    assert text(a) == text(b)
    c = build_workload(get_profile("vpr"), 2, scale=SCALE, seed=6)
    assert text(a) != text(c)
