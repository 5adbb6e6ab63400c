"""Mechanisms both engines share: the collector pause, functional-first
record streaming, and the staged core's one-call-per-stage cycle.

The fast engine used to carry private copies of the first two; now
``SMTCore`` owns them and ``FastSMTCore`` inherits them, so each test
runs against both engines.
"""

import gc

import pytest

from repro.core.config import MMTConfig
from repro.func.executor import ExecutionError
from repro.isa.assembler import assemble
from repro.pipeline.config import MachineConfig
from repro.pipeline.fast import ENGINES
from repro.pipeline.job import Job
from repro.pipeline.lsq import LoadStoreQueue
from repro.pipeline.smt import SMTCore
from repro.workloads.message_passing import build_mp_workload

ENGINE_NAMES = sorted(ENGINES)

LOOP = """
    la r5, n
    lw r1, 0(r5)
    li r2, 0
loop:
    addi r2, r2, 3
    addi r1, r1, -1
    bne r1, r0, loop
    div r3, r2, r1
    halt
.data 0x100
n: .word 100
"""


def loop_core(engine, n=100, **machine):
    """Two multi-execution contexts counting down from *n* without the
    trap: the final divide uses the (nonzero) data address instead."""
    prog = assemble(LOOP.replace("div r3, r2, r1", "div r3, r2, r5"))
    job = Job.multi_execution("loop", prog, [{0x100: n}, {0x100: n}])
    return ENGINES[engine](
        MachineConfig(num_threads=2, **machine), MMTConfig.mmt_fxr(), job
    )


# ------------------------------------------------------------ GC policy
@pytest.fixture
def gc_state():
    """Restore the interpreter's collector setting whatever a test does."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_run_leaves_gc_enabled(engine, gc_state):
    gc.enable()
    loop_core(engine).run()
    assert gc.isenabled()


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_raising_run_leaves_gc_enabled(engine, gc_state):
    gc.enable()
    core = loop_core(engine, max_cycles=50)
    with pytest.raises(RuntimeError, match="exceeded 50 cycles"):
        core.run()
    assert gc.isenabled()


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_run_keeps_callers_disabled_gc(engine, gc_state):
    gc.disable()
    loop_core(engine).run()
    assert not gc.isenabled()


# ------------------------------------------------------ record streaming
def test_streaming_eligibility_by_workload_type():
    """Only contexts that cannot interact mid-run stream: separate address
    spaces and no message channels."""
    prog = assemble(LOOP)
    machine = MachineConfig(num_threads=2)
    config = MMTConfig.mmt_fxr()
    mt = SMTCore(machine, config, Job.multi_threaded("mt", prog, 2))
    me = SMTCore(machine, config, Job.multi_execution("me", prog, [{}, {}]))
    mp = SMTCore(machine, config, build_mp_workload(2).job())
    assert mt._stream == [False, False]
    assert mp._stream == [False, False]
    assert me._stream == [True, True]


# (config, cycle, committed thread-insts, fetched thread-insts) at the
# trap, as the reference engine gave them before streaming was shared.
TRAP_PINS = [
    ("base", MMTConfig.base(), 145, 626, 666),
    ("fxr", MMTConfig.mmt_fxr(), 171, 606, 610),
]


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize(
    "name,config,cycle,committed,fetched", TRAP_PINS, ids=[p[0] for p in TRAP_PINS]
)
def test_streamed_trap_raises_at_the_same_fetch(
    engine, name, config, cycle, committed, fetched
):
    """The oracle runs ahead of fetch, but a trap still surfaces at the
    fetch that reaches it: same message, cycle and totals as stepping
    the oracle at fetch."""
    prog = assemble(LOOP)
    job = Job.multi_execution("divz", prog, [{}, {0x100: 120}])
    core = ENGINES[engine](MachineConfig(num_threads=2), config, job)
    with pytest.raises(ExecutionError) as info:
        core.run()
    assert str(info.value) == "context 0: integer division by zero at pc 6"
    assert core.cycle == cycle
    assert core.stats.committed_thread_insts == committed
    assert core.stats.fetched_thread_insts == fetched


# ------------------------------------------------------- stage structure
STAGES = (
    "commit_stage",
    "writeback_stage",
    "issue_stage",
    "rename_stage",
    "fetch_stage",
)


def test_each_stage_runs_once_per_cycle(monkeypatch):
    """The campaign benchmark times the reference pipeline by wrapping
    these methods; a stage folded into ``step()`` would read zero."""
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for name in STAGES:
        monkeypatch.setattr(
            SMTCore, name, counting(name, getattr(SMTCore, name))
        )
    monkeypatch.setattr(
        LoadStoreQueue,
        "process_loads",
        counting("process_loads", LoadStoreQueue.process_loads),
    )
    core = loop_core("reference", n=40)
    core.run()
    assert core.cycle > 40
    assert calls == {name: core.cycle for name in (*STAGES, "process_loads")}
