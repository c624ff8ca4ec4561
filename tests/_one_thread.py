"""Run a Python snippet in a fresh process pinned to one OpenBLAS thread.

The last bits of a large BLAS product or decomposition depend on the thread
count, and only a fresh process can set it. Claims made at one thread (the
count perfbench fixes) are checked through :func:`run_one_thread`, which puts
the package sources and this test directory on the child's ``PYTHONPATH`` so
the snippet can import both.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

_TESTS = Path(__file__).resolve().parent


def run_one_thread(script: str, timeout: float = 300) -> subprocess.CompletedProcess:
    """Run ``python -c script`` at ``OPENBLAS_NUM_THREADS=1`` and capture its output."""
    path = [str(_TESTS.parent / "src"), str(_TESTS), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=timeout
    )
