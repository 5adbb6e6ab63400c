"""Figure 6: energy consumption per job completed.

Four bars per application (SMT-2T, MMT-2T, SMT-4T, MMT-4T), normalised to
SMT-2T, each split into cache energy, MMT-overhead energy, and the rest.
Paper shape: MMT overhead below 2% of total power; at four threads MMT
consumes 50–90% of the SMT's energy (geomean ~66%), most apps saving
10–20% already at two threads.
"""

from conftest import emit, regenerate


def test_fig6_energy_per_job(benchmark, scale):
    rows = regenerate(benchmark, "fig6", scale)
    geo = rows[-1]
    assert geo["app"] == "geomean"
    # MMT must reduce energy per job at both thread counts.
    assert geo["MMT-2T"]["total"] < geo["SMT-2T"]["total"]
    assert geo["MMT-4T"]["total"] < geo["SMT-4T"]["total"]
    # Paper: MMT-4T consumes 50-90% of SMT energy (geomean ~66%).
    ratio4 = geo["MMT-4T"]["total"] / geo["SMT-4T"]["total"]
    emit(
        "Figure 6 — geomean summary",
        f"MMT-4T / SMT-4T energy per job: {ratio4:.2f} (paper ~0.66)\n"
        f"MMT-2T / SMT-2T energy per job: "
        f"{geo['MMT-2T']['total'] / geo['SMT-2T']['total']:.2f}",
    )
    assert ratio4 < 0.95
    # Overhead component is small for every application.
    for row in rows[:-1]:
        for label in ("MMT-2T", "MMT-4T"):
            bar = row[label]
            assert bar["mmt_overhead"] / max(bar["total"], 1e-9) < 0.06
