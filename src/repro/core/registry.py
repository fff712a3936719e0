"""String-keyed component registries.

The construction APIs (``make_scheduler``, ``make_layout``, ``make_device``)
used to be if/elif ladders duplicated between the experiment harness and the
CLI.  A :class:`Registry` replaces them: components register a factory under
a canonical name (plus aliases), and every call site resolves names through
the same table.  Registries are plain mappings, so tooling can enumerate
``SCHEDULERS`` / ``LAYOUTS`` / ``DEVICES`` to build ``--help`` text or sweep
grids without hard-coding the component list anywhere.

Name lookup is *normalized*: each registry chooses a canonicalization (e.g.
the scheduler registry folds case and strips ``-``/``_`` so ``"C-LOOK"``,
``"clook"``, and ``"c_look"`` all resolve), which preserves the paper's
spellings at call sites without multiplying alias tables.
"""

from __future__ import annotations

import difflib
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple


def fold_name(name: str) -> str:
    """Default normalization: case-insensitive, ``-``/``_``/space-blind."""
    return name.strip().lower().replace("-", "").replace("_", "").replace(" ", "")


class Registry(Mapping[str, Callable[..., Any]]):
    """A mapping of canonical component names to factory callables.

    Args:
        kind: Human-readable component kind (``"scheduler"``), used in error
            messages.
        normalize: Key canonicalization applied to both registered names and
            lookups; defaults to :func:`fold_name`.
    """

    def __init__(
        self, kind: str, normalize: Callable[[str], str] = fold_name
    ) -> None:
        self.kind = kind
        self._normalize = normalize
        self._factories: Dict[str, Callable[..., Any]] = {}
        self._canonical: Dict[str, str] = {}

    # -- registration ------------------------------------------------------ #

    def register(
        self,
        name: str,
        factory: Optional[Callable[..., Any]] = None,
        *,
        aliases: Tuple[str, ...] = (),
    ) -> Callable[..., Any]:
        """Register ``factory`` under ``name`` (and ``aliases``).

        Usable directly (``registry.register("FCFS", make_fcfs)``) or as a
        decorator (``@registry.register("FCFS")``).  Re-registering a name
        replaces the previous factory, which is how tests and extensions
        override stock components.
        """
        if factory is None:
            return lambda fn: self.register(name, fn, aliases=aliases)
        key = self._normalize(name)
        self._factories[key] = factory
        self._canonical[key] = name
        for alias in aliases:
            alias_key = self._normalize(alias)
            self._factories[alias_key] = factory
            self._canonical.setdefault(alias_key, name)
        return factory

    # -- lookup ------------------------------------------------------------ #

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Instantiate the component registered under ``name``."""
        return self[name](*args, **kwargs)

    def canonical_name(self, name: str) -> str:
        """The display name ``name`` resolves to (e.g. ``sptf`` -> ``SPTF``)."""
        key = self._normalize(name)
        if key not in self._canonical:
            raise KeyError(self._unknown(name))
        return self._canonical[key]

    def names(self) -> List[str]:
        """Canonical display names, in registration order (no aliases)."""
        seen: List[str] = []
        for canonical in self._canonical.values():
            if canonical not in seen:
                seen.append(canonical)
        return seen

    def suggest(self, name: str) -> Optional[str]:
        """The closest registered display name to a misspelled ``name``.

        Lookup is already spelling-tolerant to separators and case (see
        :func:`fold_name`); this catches the next tier of typos —
        transposed or dropped letters (``spft`` -> ``SPTF``) — so error
        messages can say *did you mean*.  Returns ``None`` when nothing is
        plausibly close.
        """
        key = self._normalize(name)
        matches = difflib.get_close_matches(
            key, list(self._factories), n=1, cutoff=0.6
        )
        if not matches:
            return None
        return self._canonical[matches[0]]

    def _unknown(self, name: str) -> str:
        message = f"unknown {self.kind}: {name!r}"
        suggestion = self.suggest(name)
        if suggestion is not None:
            message += f" (did you mean {suggestion!r}?)"
        return message + f"; registered: {', '.join(self.names())}"

    # -- Mapping interface ------------------------------------------------- #

    def __getitem__(self, name: str) -> Callable[..., Any]:
        try:
            return self._factories[self._normalize(name)]
        except KeyError:
            raise KeyError(self._unknown(name)) from None

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        return self._normalize(name) in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self.names())
