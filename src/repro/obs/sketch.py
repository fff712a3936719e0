"""Deterministic mergeable quantile sketches.

:class:`QuantileSketch` is the streaming-percentile primitive behind the
live observability engine (:mod:`repro.obs.live`): it folds an unbounded
stream of non-negative latencies into a *fixed-size* summary from which any
quantile can be read back with a guaranteed relative-error bound, and two
sketches built over disjoint shards of a stream merge into exactly the
sketch the union stream would have produced.

The design is DDSketch-shaped (logarithmic bucketing) rather than KLL or
t-digest, for one load-bearing reason: **the state is a commutative monoid
of integers**.  A value maps to the bucket ``ceil(log(x) / log(gamma))``
with ``gamma = (1 + alpha) / (1 - alpha)``, and the sketch stores only
integer bucket counts plus the exact ``min``/``max``.  Merging is integer
addition of counts and min/max folds — operations that are associative,
commutative, and bit-exact in any grouping — so per-shard sketches combine
*bit-identically for every shard order and worker count*, the same
determinism contract the fleet's k-way trace merge honors (KLL compactions
and t-digest centroid merges are order-sensitive; a float running sum is
not even associative).  The fleet tests byte-compare the merged JSON dumps
across ``jobs`` values on exactly this property.

Accuracy: a value in bucket ``i`` lies in ``(gamma**(i-1), gamma**i]`` and
is reported as the bucket midpoint ``2 * gamma**i / (gamma + 1)``, within
relative error ``alpha`` of the true value (default ``alpha = 0.005`` —
0.5%); :meth:`QuantileSketch.quantile` interpolates between the ranked
representatives with the simulator's exact-percentile convention, so the
estimate stays within ``alpha`` of the exact interpolated percentile.  The bucket index range is
clamped to values in ``[MIN_TRACKABLE, MAX_TRACKABLE]`` seconds, bounding
the sketch at a few thousand possible buckets regardless of stream length;
values below the floor land in an explicit zero bucket (exact count) and
values above the cap are clamped into the top bucket.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

DEFAULT_ALPHA = 0.005
"""Default relative-error bound (0.5%) — comfortably inside the 1%
fleet-acceptance bound with margin for midpoint rounding."""

MIN_TRACKABLE = 1e-9
"""Values below one nanosecond count as zero (no storage device in this
repository resolves latencies below it)."""

MAX_TRACKABLE = 1e6
"""Values above ~11.5 simulated days clamp into the top bucket."""


class QuantileSketch:
    """Fixed-size mergeable quantile sketch over non-negative values.

    The public surface mirrors what the live engine and the fleet rollup
    need: :meth:`add` / :meth:`add_with_index` to fold values in,
    :meth:`merge` to combine shards, :meth:`quantile` /
    :meth:`percentiles` to read estimates back, and
    :meth:`to_dict` / :meth:`from_dict` for the JSON exchange format the
    fleet result embeds.  Instances pickle (plain attributes only), so
    per-member sketches travel back from fork workers unchanged.
    """

    __slots__ = ("alpha", "_gamma", "_log_gamma", "_lo", "_hi",
                 "bins", "zero", "count", "_min", "_max")

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must be in (0, 1): {alpha}")
        self.alpha = alpha
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        self._lo = int(math.ceil(math.log(MIN_TRACKABLE) / self._log_gamma))
        self._hi = int(math.ceil(math.log(MAX_TRACKABLE) / self._log_gamma))
        self.bins: Dict[int, int] = {}
        self.zero = 0
        self.count = 0
        self._min = math.inf
        self._max = -math.inf

    # -- ingest ---------------------------------------------------------- #

    def index_of(self, value: float) -> Optional[int]:
        """Bucket index for ``value``, or ``None`` for the zero bucket.

        Exposed so a caller feeding the same value into several sketches
        (the live engine's per-class + per-window fan-out) computes the
        logarithm once and reuses it via :meth:`add_with_index`.  Only
        valid across sketches sharing the same ``alpha``.
        """
        if value < MIN_TRACKABLE:
            return None
        index = int(math.ceil(math.log(value) / self._log_gamma))
        if index > self._hi:
            return self._hi
        if index < self._lo:
            return self._lo
        return index

    def add(self, value: float) -> None:
        """Fold one value into the sketch."""
        self.add_with_index(value, self.index_of(value))

    def add_with_index(self, value: float, index: Optional[int]) -> None:
        """Fold ``value`` in with its precomputed :meth:`index_of` result."""
        if value < 0:
            raise ValueError(f"negative value: {value}")
        if index is None:
            self.zero += 1
        else:
            bins = self.bins
            bins[index] = bins.get(index, 0) + 1
        self.count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def add_indexed(
        self, values: Sequence[float], indexes: Sequence[Optional[int]]
    ) -> None:
        """:meth:`add_with_index` for many values, buckets counted in bulk."""
        if not values:
            return
        if min(values) < 0:
            raise ValueError(f"negative value: {min(values)}")
        counts = Counter(indexes)
        self.zero += counts.pop(None, 0)
        for index, count in counts.items():
            self.bins[index] = self.bins.get(index, 0) + count
        self.count += len(values)
        self._min = min(self._min, min(values))
        self._max = max(self._max, max(values))

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    # -- merge ----------------------------------------------------------- #

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into ``self`` (in place); returns ``self``.

        Integer addition of bucket counts plus min/max folds: exactly
        associative and commutative, so any merge tree over any shard
        order yields the identical state (and identical
        :meth:`to_dict` bytes).
        """
        if not isinstance(other, QuantileSketch):
            raise TypeError(f"cannot merge {type(other).__name__}")
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge sketches with different alpha: "
                f"{self.alpha} vs {other.alpha}"
            )
        bins = self.bins
        for index, count in other.bins.items():
            bins[index] = bins.get(index, 0) + count
        self.zero += other.zero
        self.count += other.count
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        return self

    @classmethod
    def merged(
        cls, sketches: Iterable["QuantileSketch"], alpha: float = DEFAULT_ALPHA
    ) -> "QuantileSketch":
        """A fresh sketch holding the fold of ``sketches`` (inputs kept)."""
        out = cls(alpha=alpha)
        for sketch in sketches:
            out.merge(sketch)
        return out

    # -- read-back ------------------------------------------------------- #

    @property
    def min(self) -> Optional[float]:
        return self._min if self.count else None

    @property
    def max(self) -> Optional[float]:
        return self._max if self.count else None

    def _representative(self, index: int) -> float:
        # Midpoint of the bucket interval (gamma**(i-1), gamma**i]: within
        # relative error alpha of every value that landed in the bucket.
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def _value_at_rank(self, rank: int) -> float:
        """Representative value of the ``rank``-th (0-based) ordered sample."""
        if rank < self.zero:
            return max(0.0, self._min)
        cumulative = self.zero
        for index in sorted(self.bins):
            cumulative += self.bins[index]
            if cumulative > rank:
                return self._representative(index)
        return self._max

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (``0 <= q <= 1``); ``None`` if empty.

        Linear interpolation at rank ``q * (count - 1)`` between bucket
        representatives — the same convention as
        :meth:`SimulationResult.response_time_percentile
        <repro.sim.statistics.SimulationResult.response_time_percentile>`,
        so sketch and exact percentiles differ only by the per-value
        ``alpha`` bound, not by rank convention.  The estimate is clamped
        into the exact observed ``[min, max]`` so the tails can never be
        reported outside the data.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile out of range: {q}")
        if self.count == 0:
            return None
        target = q * (self.count - 1)
        lo_rank = math.floor(target)
        frac = target - lo_rank
        estimate = self._value_at_rank(lo_rank)
        if frac:
            estimate += frac * (self._value_at_rank(lo_rank + 1) - estimate)
        if estimate < self._min:
            return self._min
        if estimate > self._max:
            return self._max
        return estimate

    def percentiles(self, *pcts: float) -> Dict[str, Optional[float]]:
        """Several percentiles keyed ``p50``/``p95``/... (defaults 50/95/99).

        Same key convention as
        :meth:`repro.sim.statistics.SimulationResult.percentiles`, so the
        accuracy tests compare the two dictionaries directly.
        """
        if not pcts:
            pcts = (50.0, 95.0, 99.0)
        return {f"p{pct:g}": self.quantile(pct / 100.0) for pct in pcts}

    def mean(self) -> Optional[float]:
        """Mean estimated from bucket midpoints (zero bucket counts as 0).

        Derived, not stored: keeping a float running sum in the state
        would break bit-exact merge associativity.  Summation iterates
        buckets in sorted order, so the float fold is identical for every
        merge history of the same multiset.
        """
        if self.count == 0:
            return None
        total = 0.0
        for index in sorted(self.bins):
            total += self.bins[index] * self._representative(index)
        return total / self.count

    # -- exchange format -------------------------------------------------- #

    def to_dict(self) -> dict:
        """JSON-ready state dump (bucket keys stringified, sorted).

        Two sketches holding the same multiset produce byte-identical
        ``json.dumps(..., sort_keys=True)`` output regardless of how they
        were merged — the property the fleet determinism tests pin.
        """
        return {
            "alpha": self.alpha,
            "count": self.count,
            "zero": self.zero,
            "min": self._min if self.count else None,
            "max": self._max if self.count else None,
            "bins": {str(index): self.bins[index]
                     for index in sorted(self.bins)},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "QuantileSketch":
        sketch = cls(alpha=float(data["alpha"]))  # type: ignore[arg-type]
        sketch.count = int(data["count"])  # type: ignore[arg-type]
        sketch.zero = int(data["zero"])  # type: ignore[arg-type]
        bins = data.get("bins") or {}
        sketch.bins = {
            int(index): int(count)
            for index, count in bins.items()  # type: ignore[union-attr]
        }
        if sketch.count:
            sketch._min = float(data["min"])  # type: ignore[arg-type]
            sketch._max = float(data["max"])  # type: ignore[arg-type]
        return sketch

    # -- dunder ----------------------------------------------------------- #

    def __len__(self) -> int:
        return self.count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return (
            self.alpha == other.alpha
            and self.count == other.count
            and self.zero == other.zero
            and self.bins == other.bins
            and (self.count == 0
                 or (self._min == other._min and self._max == other._max))
        )

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(alpha={self.alpha}, count={self.count}, "
            f"buckets={len(self.bins)})"
        )

    # __slots__ classes need explicit pickle support.
    def __getstate__(self) -> Tuple:
        return (self.alpha, self.bins, self.zero, self.count,
                self._min, self._max)

    def __setstate__(self, state: Tuple) -> None:
        alpha, bins, zero, count, vmin, vmax = state
        self.__init__(alpha=alpha)  # type: ignore[misc]
        self.bins = bins
        self.zero = zero
        self.count = count
        self._min = vmin
        self._max = vmax
