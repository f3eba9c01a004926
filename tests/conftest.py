"""Fixtures shared by the test modules."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import dustcocycle


def _run_capped(code, *argv):
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    # one BLAS thread: each would reserve its own buffers under the cap
    env = {**os.environ, "PYTHONPATH": str(Path(dustcocycle.__file__).resolve().parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          timeout=60, preexec_fn=cap, env=env)


@pytest.fixture
def run_capped():
    """Run Python ``code`` with ``argv`` in a child process of this package,
    under a 3 GB address-space cap and a 60 s timeout, so a hang or a huge
    allocation fails the test instead of stalling the suite."""
    return _run_capped
