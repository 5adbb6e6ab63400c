"""Full application × configuration stress matrix.

Runs every one of the sixteen applications under every realizable
configuration at reduced scale: the oracle value checks, the end-of-run
drain checks, and cross-configuration output
equality all hold across the whole matrix.  This is the widest single
correctness sweep in the suite.
"""

import pytest

from repro.core.config import MMTConfig
from repro.pipeline.config import MachineConfig
from repro.pipeline.smt import SMTCore
from repro.workloads.generator import build_workload
from repro.workloads.profiles import APP_ORDER, get_profile

SCALE = 0.25
CONFIGS = [
    MMTConfig.base(),
    MMTConfig.mmt_f(),
    MMTConfig.mmt_fx(),
    MMTConfig.mmt_fxr(),
]


@pytest.mark.parametrize("app", APP_ORDER)
def test_matrix_two_threads(app):
    build = build_workload(get_profile(app), 2, scale=SCALE)
    reference = None
    for config in CONFIGS:
        job = build.job()
        core = SMTCore(MachineConfig(num_threads=2), config, job)
        stats = core.run()
        outputs = build.output_region(job)
        if reference is None:
            reference = outputs
        else:
            assert outputs == reference, f"{app}/{config.name}"
        assert stats.halted_threads == 2
        assert stats.cycles > 0
        # Refcount integrity: at drain, in-use registers are exactly the
        # architectural mappings.
        in_use = core.regfile.num_regs - core.regfile.free_count()
        mapped = len(
            {core.rat.get(t, r) for t in range(2) for r in range(48)}
        )
        assert in_use == mapped, f"{app}/{config.name} leaked registers"


@pytest.mark.parametrize("app", ["ammp", "vortex", "water-ns", "canneal"])
def test_matrix_four_threads_fxr(app):
    build = build_workload(get_profile(app), 4, scale=SCALE)
    base_job = build.job()
    SMTCore(MachineConfig(num_threads=4), MMTConfig.base(), base_job).run()
    mmt_job = build.job()
    core = SMTCore(
        MachineConfig(num_threads=4), MMTConfig.mmt_fxr(), mmt_job
    )
    core.run()
    assert build.output_region(mmt_job) == build.output_region(base_job)
