"""Figure 7(b): sensitivity to load/store ports (MSHRs scaled along).

Paper shape: more load/store ports — a less memory-constrained machine —
make the fetch/execute merging *more* beneficial, because the front end
becomes the remaining bottleneck.
"""

from conftest import SWEEP_APPS, regenerate

from repro.harness import LDST_PORT_COUNTS


def test_fig7b_ldst_port_sweep(benchmark, scale):
    rows = regenerate(benchmark, "fig7b", scale, apps=SWEEP_APPS)
    assert [row["ldst_ports"] for row in rows] == list(LDST_PORT_COUNTS)
    speeds = [row["geomean_speedup"] for row in rows]
    # The machine must stay beneficial across the sweep, and the
    # best-provisioned memory system should not be the worst for MMT.
    assert all(s > 0.9 for s in speeds)
    assert speeds[-1] >= speeds[0] - 0.05
