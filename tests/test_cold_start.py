"""Cold-path guards, each run in a fresh interpreter.

A short ``python -m repro`` process should pay only for what it uses:
importing the CLI loads neither scipy (not a runtime dependency) nor
numpy (imported lazily through :func:`repro.nputil.get_numpy`).  Pool
workers are forked, so they inherit the parent's modules;
``parallel_map`` imports numpy in the parent before forking, so no
worker has to import it again.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.experiments.parallel import available_parallelism, fork_available

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _run(code: str) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` importable."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_loads_neither_scipy_nor_numpy():
    # Nor does it start a thread or a worker process.
    out = _run(
        "import multiprocessing, sys, threading\n"
        "import repro.__main__\n"
        "print(sorted({'scipy', 'numpy'} & set(sys.modules)),"
        " threading.active_count(), multiprocessing.active_children())\n"
    )
    assert out == "[] 1 []"


@pytest.mark.skipif(
    not fork_available() or available_parallelism() < 2,
    reason="needs fork and at least two CPUs for a real pool",
)
def test_pool_workers_start_with_numpy_loaded():
    # Each task reports whether numpy was already imported when it started.
    out = _run(
        "import sys\n"
        "from repro.experiments.parallel import parallel_map\n"
        "assert 'numpy' not in sys.modules\n"
        "def loaded(task):\n"
        "    return 'numpy' in sys.modules\n"
        "print(parallel_map(loaded, [(i,) for i in range(4)], jobs=2))\n"
    )
    assert out == str([True] * 4)
