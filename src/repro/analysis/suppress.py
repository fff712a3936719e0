"""The path-scoped allowlist: whole files exempt from specific rules.

:data:`DEFAULT_ALLOWLIST` exempts files where the banned construct is the
*point* of the file: wall-clock reads are what ``experiments/runner.py``'s
duration reporting and the self-profiler do, and the ``repro.obs`` sinks
are the unconditional consumers every guarded emission site feeds.  There
is no per-line escape hatch; a finding elsewhere is fixed, or the file
earns an allowlist entry here with its reason.
"""

from __future__ import annotations

import fnmatch
from typing import Mapping, Tuple

DEFAULT_ALLOWLIST: Mapping[str, Tuple[str, ...]] = {
    # Wall-clock reads are legal where the *host* duration is the payload:
    # the experiment runner's report, the benchmark harnesses, and the
    # self-profiler (whose whole job is attributing wall time).
    "R2": (
        "*/experiments/runner.py",
        "experiments/runner.py",
        "*/benchmarks/*",
        "benchmarks/*",
        "*/repro/obs/prof.py",
        "repro/obs/prof.py",
    ),
    # The obs sinks (JsonlTracer header write, TeeTracer fan-out,
    # SamplingTracer forwarding) consume events unconditionally by design;
    # the enabled-guard contract binds emission *sites*, not sinks.
    "R3": (
        "*/repro/obs/*",
        "repro/obs/*",
    ),
}


def path_allowlisted(
    rule_id: str,
    path: str,
    allowlist: Mapping[str, Tuple[str, ...]] = DEFAULT_ALLOWLIST,
) -> bool:
    """True when ``rule_id`` is exempt for ``path`` (POSIX, root-relative)."""
    patterns = allowlist.get(rule_id, ())
    return any(fnmatch.fnmatch(path, pattern) for pattern in patterns)
