"""The campaign benchmark's tracer still finds every name it wraps.

``campaignbench/layers.py`` instruments the harness from outside by
replacing module globals and class methods.  Renaming or deleting one of
them breaks the benchmark, so this tier-1 test installs the tracer in a
fresh interpreter, as the benchmark's child process does.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_campaignbench_tracer_installs():
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-c",
         "from layers import Tracer, install; install(Tracer())"],
        cwd=REPO / "campaignbench", env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
