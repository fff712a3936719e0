"""Experiment harness: one module per paper figure/table.

==================  ====================================================
module              regenerates
==================  ====================================================
figure05            Fig. 5 — schedulers on the Atlas 10K (random)
figure06            Fig. 6 — schedulers on MEMS (random)
figure07            Fig. 7 — Cello / TPC-C traces on MEMS
figure08            Fig. 8 — SPTF × settle-time interaction
figure09            Fig. 9 — subregion service-time grid
figure10            Fig. 10 — 256 KB service time vs X distance
figure11            Fig. 11 — layout schemes
table02             Table 2 — read-modify-write decomposition
faults              §6.1 ablations — survival curves, recovery costs
power               §6.3/§7 ablations — idle policies, startup, linearity
ablations           DESIGN.md §6 design-choice sweeps (spring, tips, ...)
recovery            §6.3 — synchronous writes, crash-to-first-I/O
buffering           §2.4.11 — speed-matching buffer, sequential prefetch
generations         extension — G1/G2/G3 design-point roadmap
==================  ====================================================

Each module exposes ``run(...) -> <result dataclass>`` returning the raw
data and a ``main()`` that prints the paper-matching rows;
:mod:`repro.experiments.runner` drives them all.

:data:`ALL_EXPERIMENTS` imports a module on first lookup: listing the
experiments imports none of them, and running one imports only what that
module uses.
"""

import importlib
from collections.abc import Mapping


class _ExperimentModules(Mapping):
    """Read-only experiment name → module mapping, in table order, that
    imports each module on first lookup."""

    def __init__(self, names) -> None:
        self._names = tuple(names)

    def __getitem__(self, name):
        if name not in self._names:
            raise KeyError(name)
        return importlib.import_module(f"{__name__}.{name}")

    def __contains__(self, name) -> bool:
        return name in self._names  # without importing the module

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


ALL_EXPERIMENTS = _ExperimentModules(
    (
        "figure05",
        "figure06",
        "figure07",
        "figure08",
        "figure09",
        "figure10",
        "figure11",
        "table02",
        "faults",
        "power",
        "ablations",
        "recovery",
        "buffering",
        "generations",
    )
)

__all__ = ["ALL_EXPERIMENTS"] + list(ALL_EXPERIMENTS)


def __getattr__(name: str):
    # ``repro.experiments.figure05`` without importing the submodule first.
    if name in ALL_EXPERIMENTS:
        return ALL_EXPERIMENTS[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
