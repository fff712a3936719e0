"""The rule interface, its registry, and the three rules (R1–R3).

Each rule encodes a convention the simulator's reproducibility or
performance depends on, and whose breaks tests can miss;
``docs/static-analysis.md`` gives the rationale and the planted-defect
audit behind every rule.

Rules are registered in :data:`ANALYSIS_RULES` — the same
:class:`repro.core.registry.Registry` machinery the simulator uses for
schedulers and layouts — under their short id (``R1``) with their slug
(``unseeded-rng``) as an alias.  A rule is a class with an id, a slug and a
severity, and a ``check(module)`` generator that yields ``(node, message)``
pairs against a parsed :class:`~repro.analysis.astutil.ModuleSource`.
Rules never see the path allowlist — the engine applies it — so a rule
stays a pure AST query.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple, Type

from repro.analysis.astutil import ModuleSource, ancestry, dotted_origin
from repro.analysis.findings import Severity
from repro.core.registry import Registry

RawFinding = Tuple[ast.AST, str]

ANALYSIS_RULES = Registry("analysis rule")
"""String-keyed registry of :class:`Rule` subclasses (id + slug aliases)."""


class Rule:
    """Base class for one static-analysis rule.

    Subclasses set the class attributes and implement :meth:`check`; the
    engine turns each yielded ``(node, message)`` pair into a
    :class:`~repro.analysis.findings.Finding` with the rule's id and
    severity attached.
    """

    id: str = ""
    slug: str = ""
    severity: Severity = Severity.ERROR

    def check(self, module: ModuleSource) -> Iterator[RawFinding]:
        raise NotImplementedError


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a :class:`Rule` subclass to the registry."""
    ANALYSIS_RULES.register(cls.id, cls, aliases=(cls.slug,))
    return cls


def all_rules() -> List[Rule]:
    """One instance of every registered rule, in registration order."""
    return [ANALYSIS_RULES.create(rule_id) for rule_id in ANALYSIS_RULES]


# --------------------------------------------------------------------------- #
# R1 — unseeded / global RNG
# --------------------------------------------------------------------------- #

_GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "betavariate",
        "binomialvariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)


@register_rule
class UnseededRNGRule(Rule):
    """No unseeded ``random.Random()``, no shared-global ``random.*`` calls.

    Every stochastic component takes an explicit seed (``random.Random(seed)``)
    so runs are bit-reproducible and sweep workers don't share hidden state.
    numpy streams are out of reach: ``src/`` reaches numpy only through
    :func:`repro.nputil.get_numpy`, which an import-based check cannot see
    through, so the one numpy RNG construction is pinned by the tests.
    """

    id = "R1"
    slug = "unseeded-rng"

    def check(self, module: ModuleSource) -> Iterator[RawFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = dotted_origin(node.func, module.imports)
            if origin is None:
                continue
            if origin == "random.Random":
                if not node.args and not node.keywords:
                    yield node, (
                        "unseeded random.Random() — pass an explicit seed so "
                        "runs are reproducible"
                    )
            elif origin == "random.SystemRandom":
                yield node, (
                    "random.SystemRandom is unseedable (OS entropy) and "
                    "can never reproduce a run"
                )
            elif origin.startswith("random."):
                func = origin.split(".", 1)[1]
                if func in _GLOBAL_RANDOM_FUNCS:
                    yield node, (
                        f"{origin}() uses the process-global RNG; construct "
                        f"random.Random(seed) and call it instead"
                    )


# --------------------------------------------------------------------------- #
# R2 — wall-clock reads in simulated code
# --------------------------------------------------------------------------- #

_WALL_CLOCK_ORIGINS = frozenset(
    {
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.time",
        "time.time_ns",
        "datetime.date.today",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
    }
)


@register_rule
class WallClockRule(Rule):
    """No wall-clock reads where time must be *simulated* time.

    Device models, schedulers, and the engine operate on the simulation
    clock (`now` parameters); reading the host clock couples results to
    machine speed.  Wall-clock timing is legal only in the allowlisted
    reporting paths (``experiments/runner.py``, benchmark harnesses, the
    self-profiler).
    """

    id = "R2"
    slug = "wall-clock"

    def check(self, module: ModuleSource) -> Iterator[RawFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = dotted_origin(node.func, module.imports)
            if origin in _WALL_CLOCK_ORIGINS:
                yield node, (
                    f"{origin}() reads the host clock inside simulated "
                    f"code; use the simulation clock (`now`) or move the "
                    f"timing to an allowlisted reporting path"
                )


# --------------------------------------------------------------------------- #
# R3 — tracer.emit must be dominated by a tracer.enabled guard
# --------------------------------------------------------------------------- #


def _tracer_like(expr: ast.AST) -> bool:
    if isinstance(expr, ast.Name):
        return expr.id == "tracer" or expr.id.endswith("tracer")
    if isinstance(expr, ast.Attribute):
        return expr.attr == "tracer" or expr.attr.endswith("tracer")
    return False


def _not_depth(node: ast.AST, root: ast.AST) -> int:
    """Number of ``not`` operators wrapping ``node`` inside ``root``."""
    depth = 0
    for child, parent in ancestry(node):
        if isinstance(parent, ast.UnaryOp) and isinstance(parent.op, ast.Not):
            depth += 1
        if parent is root:
            break
    return depth


def _enabled_polarity(test: ast.AST, base_dump: str) -> Tuple[bool, bool]:
    """(has positive ``<base>.enabled``, has negated one) inside ``test``."""
    positive = negative = False
    for sub in ast.walk(test):
        if (
            isinstance(sub, ast.Attribute)
            and sub.attr == "enabled"
            and ast.dump(sub.value) == base_dump
        ):
            if _not_depth(sub, test) % 2 == 0:
                positive = True
            else:
                negative = True
    return positive, negative


def _is_early_exit_guard(stmt: ast.stmt, base_dump: str) -> bool:
    """``if not <base>.enabled: return`` (or raise/continue/break)."""
    if not isinstance(stmt, ast.If) or stmt.orelse:
        return False
    _, negative = _enabled_polarity(stmt.test, base_dump)
    if not negative:
        return False
    return bool(stmt.body) and isinstance(
        stmt.body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def _emit_is_guarded(call: ast.Call, base: ast.AST) -> bool:
    base_dump = ast.dump(base)
    for child, parent in ancestry(call):
        if isinstance(parent, ast.If):
            positive, negative = _enabled_polarity(parent.test, base_dump)
            if child in parent.body and positive:
                return True
            if child in parent.orelse and negative:
                return True
        # An earlier `if not tracer.enabled: return` in any enclosing block
        # dominates everything after it.
        for block_name in ("body", "orelse", "finalbody"):
            stmts = getattr(parent, block_name, None)
            if isinstance(stmts, list) and child in stmts:
                for prior in stmts[: stmts.index(child)]:
                    if _is_early_exit_guard(prior, base_dump):
                        return True
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Guards don't propagate across function boundaries: a helper
            # that emits must re-check (callers checking for it is exactly
            # the convention drift this rule exists to catch).
            break
    return False


@register_rule
class UnguardedTraceEmitRule(Rule):
    """Every ``tracer.emit(...)`` must sit under a ``tracer.enabled`` guard.

    The observability contract is that disabled tracing costs one
    attribute load and a branch per site; an unguarded emit builds the
    event dict unconditionally and silently re-slows the dispatch hot loop.

    The check is syntactic and stays inside one function.  A site that
    binds the guard to a local first (the drain loop's ``emit =
    tracer.emit`` / ``tracing = tracer.enabled``) is out of its reach;
    ``tests/obs/test_null_tracer_guards.py`` covers those sites by making
    the null tracer's ``emit`` raise.
    """

    id = "R3"
    slug = "unguarded-trace-emit"

    def check(self, module: ModuleSource) -> Iterator[RawFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
                continue
            if not _tracer_like(func.value):
                continue
            if not _emit_is_guarded(node, func.value):
                yield node, (
                    "tracer.emit() without a dominating tracer.enabled "
                    "guard — the event dict is built even when tracing is "
                    "off (guard it: `if tracer.enabled: tracer.emit(...)`)"
                )
