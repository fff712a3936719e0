"""Cold-path guards, each run in a fresh interpreter.

A short ``python -m repro`` process should pay only for what it uses.
The package roots (``repro``, ``repro.obs``) resolve their public names on
first access, ``repro.experiments.ALL_EXPERIMENTS`` imports an experiment
module on first lookup, and the CLI imports each subcommand's modules in
its handler.  So importing the CLI loads neither scipy (not a runtime
dependency) nor numpy (imported lazily through
:func:`repro.nputil.get_numpy`), nor any device model, workload, fleet,
array or experiment module, nor the live fold (``repro.obs.live`` and its
sketches, loaded by ``--live-window``/``--slo`` runs) or
``repro.sim.replication``.  Pool workers are forked, so they inherit the
parent's modules; ``parallel_map`` imports numpy in the parent before
forking, so no worker has to import it again.  The CLI also caps
OpenBLAS at one thread unless the caller set ``OPENBLAS_NUM_THREADS``,
so importing numpy after it starts no BLAS thread.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.experiments.parallel import available_parallelism, fork_available

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_LOADED = (
    "def loaded(*names):\n"
    "    return sorted(m for m in sys.modules for n in names\n"
    "                  if m == n or m.startswith(n + '.'))\n"
)
"""Source of ``loaded(*names)``: the loaded modules at or under ``names``."""


def _run(code: str, **environ) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` importable; keyword
    arguments set environment variables (``None`` removes one)."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    for name, value in environ.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
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
    not os.path.isdir("/proc/self/task"), reason="counts threads in /proc"
)
def test_numpy_after_the_cli_starts_no_blas_thread():
    # The CLI caps OpenBLAS at one thread before numpy can be imported.
    out = _run(
        "import os\n"
        "import repro.__main__\n"
        "import numpy\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'],"
        " len(os.listdir('/proc/self/task')))\n",
        OPENBLAS_NUM_THREADS=None,
    )
    assert out == "1 1"


def test_cli_import_keeps_a_preset_blas_thread_count():
    out = _run(
        "import os\n"
        "import repro.__main__\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n",
        OPENBLAS_NUM_THREADS="2",
    )
    assert out == "2"


def test_cli_import_loads_no_subcommand_module():
    out = _run(
        "import sys\n"
        + _LOADED
        + "import repro.__main__\n"
        "print(loaded('repro.fleet', 'repro.array', 'repro.ecc',"
        " 'repro.experiments', 'repro.mems', 'repro.disk', 'repro.workloads',"
        " 'repro.obs.analyze', 'repro.obs.report', 'repro.obs.spans',"
        " 'repro.obs.prof', 'repro.obs.validate', 'repro.obs.live',"
        " 'repro.obs.sketch', 'repro.sim.replication'))\n"
    )
    assert out == "[]"


def test_simulate_loads_only_what_it_runs():
    out = _run(
        "import contextlib, io, sys\n"
        + _LOADED
        + "import repro.__main__ as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as text:\n"
        "    code = cli.main(['simulate', '--requests', '300', '--metrics'])\n"
        "assert code == 0 and 'mean response' in text.getvalue()\n"
        "print(loaded('repro.fleet', 'repro.array', 'repro.experiments',"
        " 'repro.obs.analyze', 'repro.obs.report'))\n"
    )
    assert out == "[]"


def test_experiments_list_imports_no_experiment():
    out = _run(
        "import contextlib, io, sys\n"
        + _LOADED
        + "import repro.__main__ as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as text:\n"
        "    assert cli.main(['experiments', '--list']) == 0\n"
        "print(text.getvalue().split(), loaded('repro.experiments'))\n"
    )
    from repro.experiments import ALL_EXPERIMENTS

    assert out == f"{list(ALL_EXPERIMENTS)} ['repro.experiments']"


def test_experiment_lookup_imports_that_module_only():
    out = _run(
        "import sys\n"
        + _LOADED
        + "from repro.experiments import ALL_EXPERIMENTS as table\n"
        "assert 'table02' in table and 'nope' not in table\n"
        "assert table.get('nope') is None\n"
        "experiments = ['repro.experiments.' + name for name in table]\n"
        "before = loaded(*experiments)\n"
        "module = table['table02']\n"
        "assert module is sys.modules['repro.experiments.table02']\n"
        "assert table.get('table02') is module\n"
        "print(before, loaded(*experiments), len(table))\n"
    )
    assert out == "[] ['repro.experiments.table02'] 14"


@pytest.mark.parametrize("package", ["repro", "repro.obs"])
def test_public_names_resolve_to_their_defining_objects(package):
    # ``import repro.obs`` imports the two package roots and nothing else;
    # each name then resolves to what its defining module holds, and
    # ``import *`` binds every one.
    out = _run(
        "import importlib, inspect, sys\n"
        + _LOADED
        + f"import {package} as package\n"
        "print(loaded('repro'))\n"
        "for name in package.__all__:\n"
        "    value = getattr(package, name)\n"
        "    home = inspect.getmodule(value) if (\n"
        "        inspect.isclass(value) or inspect.isfunction(value)\n"
        "    ) else importlib.import_module(package._MODULE_OF[name])\n"
        "    assert getattr(home, name) is value, name\n"
        "    assert name in dir(package), name\n"
        "namespace = {}\n"
        f"exec('from {package} import *', namespace)\n"
        "assert set(package.__all__) <= set(namespace)\n"
    )
    assert out == ("['repro', 'repro.obs']" if package == "repro.obs" else "['repro']")


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
