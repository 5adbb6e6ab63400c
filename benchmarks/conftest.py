"""Shared benchmark configuration.

The one benchmark here is the fast-engine gate.  The paper's figures and
tables, the ablations and extensions beyond them, and their claims, come
from ``python -m repro reproduce``.  Set ``REPRO_BENCH_SCALE`` to shrink
or grow the workloads (default 1.0 — the calibrated size).
"""

import os

import pytest

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


@pytest.fixture(scope="session")
def scale():
    return SCALE


def emit(title: str, body: str) -> None:
    """Print a regenerated table/figure under a banner."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")
