"""Shared benchmark configuration.

Each benchmark regenerates one table or figure of the paper and prints it
in the paper's layout.  Set ``REPRO_BENCH_SCALE`` to shrink or grow the
workloads (default 1.0 — the calibrated size); completed simulations are
memoised across benchmarks within one pytest session, so figures that
share runs (5(a)/5(b)/5(d)/6) only simulate each point once.

Simulation points are executed up front as a parallel campaign (see
``repro.harness.campaign``): every figure module regenerates its entry
of ``repro.harness.FIGURES`` through :func:`regenerate`, whose
:func:`prefetch` fans the points out across worker processes and fills
the in-memory memo plus the on-disk result cache (``.repro-cache/``).
``REPRO_BENCH_WORKERS`` controls the fan-out: unset uses every core,
``N`` uses N processes, ``0`` disables prefetching entirely (pure
serial, the pre-campaign behaviour).
"""

import os

import pytest

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

_RAW_WORKERS = os.environ.get("REPRO_BENCH_WORKERS", "")
#: None -> every CPU this process may run on; 0 -> prefetching disabled;
#: N -> N worker processes.
WORKERS = None if _RAW_WORKERS == "" else int(_RAW_WORKERS)


def prefetch(fig_id: str, scale: float, apps=None):
    """Run *fig_id*'s simulation points as a parallel campaign.

    Fills the serial memo caches so the figure regenerators afterwards
    find every run already done.  A best-effort accelerator: failures
    fall through to the serial path, and ``REPRO_BENCH_WORKERS=0``
    skips it entirely.
    """
    if WORKERS == 0:
        return None
    from repro.harness import prefetch_figure

    return prefetch_figure(fig_id, apps=apps, scale=scale, workers=WORKERS)


def regenerate(benchmark, fig_id: str, scale: float = 1.0, apps=None):
    """Regenerate one entry of ``repro.harness.FIGURES``: prefetch its
    runs, compute its rows under the benchmark timer and print them in
    the paper's layout.  Returns the rows."""
    from repro.harness import FIGURES

    figure = FIGURES[fig_id]
    prefetch(fig_id, scale, apps=apps)
    rows = benchmark.pedantic(
        lambda: figure.compute(apps, scale), rounds=1, iterations=1
    )
    emit(figure.title, figure.layout(rows))
    return rows


#: Subset used by the machine-parameter sweeps (Figures 7(b)/(d)) to keep
#: wall time reasonable; spans both workload categories and both ends of
#: the sharing spectrum.
SWEEP_APPS = [
    "ammp", "mcf", "twolf", "vpr",
    "lu", "water-sp", "blackscholes", "canneal",
]


@pytest.fixture(scope="session")
def scale():
    return SCALE


def emit(title: str, body: str) -> None:
    """Print a regenerated table/figure under a banner."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")
