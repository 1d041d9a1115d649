"""Posterior inference over the likelihood support for a fixed harmed count.

With the harmed count held fixed, the posterior over (n11, n10) under any
prior is proportional to prior weight times the randomization likelihood,
normalized over the finite support. Posteriors of derived quantities (the
average effect, the attributable effect) are pushforwards of that point
posterior. Every distribution holds integer weights over their total, built
from the likelihood's integer numerators, so modes and highest-density windows
are decided on integers at every N; ``mass`` is their exact rational view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Mapping, Optional

from .likelihood import _grid, _numerator
from .tables import (
    IntervalEstimate,
    ObservedTable,
    _count,
    general_support,
)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Nonnegative integer weights on a strictly increasing support; p = w / total."""

    support: tuple
    weights: tuple

    def __post_init__(self) -> None:
        if len(self.support) != len(self.weights):
            raise ValueError("support and weights must align")
        if not self.support:
            raise ValueError("empty distribution")
        if any(b <= a for a, b in zip(self.support, self.support[1:])):
            raise ValueError("support must be strictly increasing")
        if any(not isinstance(w, int) or w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative integers")
        if not any(self.weights):
            raise ValueError("weights must have a positive sum")

    @property
    def total(self) -> int:
        return sum(self.weights)

    @property
    def mass(self) -> tuple[Fraction, ...]:
        total = self.total
        return tuple(Fraction(w, total) for w in self.weights)

    def mode(self):
        """Smallest support value attaining the maximum weight."""
        return self.support[self.weights.index(max(self.weights))]

    def median(self):
        """Smallest support value whose cumulative mass reaches one half.

        On these skewed discrete posteriors the median is the stable point
        summary: for the worked example it stays on the same grid value
        across the whole sensitivity sweep, which the mode does not.
        """
        total = self.total
        for value, cumulative in zip(self.support, accumulate(self.weights)):
            if 2 * cumulative >= total:
                return value


@dataclass(frozen=True)
class Prior:
    """Prior weights over the (n11, n10) grid at the posterior's harmed count.

    ``weights`` None is the uniform prior. A table maps ``(n11, n10)`` to a
    nonnegative weight, held as an exact rational; points absent from the
    table carry weight zero. No parametric families: the module stays
    model-free.
    """

    weights: Optional[Mapping[tuple[int, int], Fraction]] = None

    def __post_init__(self) -> None:
        if self.weights is None:
            return
        table = {
            (_count(n11, "n11"), _count(n10, "n10")): Fraction(w)
            for (n11, n10), w in self.weights.items()
        }
        if any(w < 0 for w in table.values()):
            raise ValueError("prior weights must be nonnegative")
        if not any(table.values()):
            raise ValueError("prior must put positive weight somewhere")
        object.__setattr__(self, "weights", table)


UNIFORM = Prior()


def _weighted(
    obs: ObservedTable, n01: int, prior: Prior
) -> Iterable[tuple[int, int, int]]:
    """``(n11, n10, prior weight x likelihood numerator)`` wherever positive.

    A table prior is evaluated on its own weighted points only, scaled to
    integers by the lcm of its denominators. Raises InfeasibleError on an
    empty support and ValueError when the prior annihilates all of it.
    """
    rows = _grid(obs, n01)
    if prior.weights is not None:
        scale = math.lcm(*(w.denominator for w in prior.weights.values()))
        rows = [
            (n11, n10, w.numerator * (scale // w.denominator) * _numerator(obs, n11, n10, n01))
            for (n11, n10), w in prior.weights.items()
            if w > 0
        ]
        rows = [row for row in rows if row[2]]
        if not rows:
            raise ValueError("prior assigns zero weight to the entire support")
    return rows


def posterior_points(
    obs: ObservedTable, n01: int = 0, prior: Prior = UNIFORM
) -> DiscreteDistribution:
    """Posterior over support points: prior times likelihood, normalized.

    Weights are prior weight times likelihood numerator; under the uniform
    prior the posterior is exactly the normalized likelihood. Raises when
    the support is empty or the prior annihilates all of it.
    """
    weights = {(n11, n10): w for n11, n10, w in _weighted(obs, n01, prior)}
    support = general_support(obs, n01)
    return DiscreteDistribution(
        support=support,
        weights=tuple(weights.get((p.n11, p.n10), 0) for p in support),
    )


def _pushforward(rows, axis: int, fn: Callable) -> DiscreteDistribution:
    # Weights are summed per grid coordinate; the support is where mass lives.
    sums: dict = {}
    for row in rows:
        key = row[axis]
        sums[key] = sums.get(key, 0) + row[2]
    support, weights = zip(*sorted((fn(key), weight) for key, weight in sums.items()))
    return DiscreteDistribution(support=support, weights=weights)


def tau_posterior(
    obs: ObservedTable, n01: int = 0, prior: Prior = UNIFORM
) -> DiscreteDistribution:
    """Posterior of the average causal effect, on the grid (k - n01)/N."""
    total = obs.total
    return _pushforward(
        _weighted(obs, n01, prior), 1, lambda n10: Fraction(n10 - n01, total)
    )


def a_posterior(
    obs: ObservedTable, n01: int = 0, prior: Prior = UNIFORM
) -> DiscreteDistribution:
    """Posterior of the attributable effect A = n11_obs + n01_obs - n01 - n11."""
    base = obs.n11 + obs.n01 - n01
    return _pushforward(_weighted(obs, n01, prior), 0, lambda n11: base - n11)


def hpd_window(dist: DiscreteDistribution, level: float) -> tuple:
    """Smallest contiguous support window holding at least ``level`` mass.

    Among windows of minimal width the one with the larger mass wins; any
    remaining tie goes to the window most symmetric around the mode, then
    to the leftmost. Returns (low value, high value, window mass). Window
    weights are compared with the level's exact value: w * den >= num * total.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    num, den = level.as_integer_ratio()
    weights = dist.weights
    size = len(weights)
    mode_index = weights.index(max(weights))
    prefix = [0, *accumulate(weights)]
    total = prefix[-1]
    # The whole support holds total >= level * total, so some width succeeds.
    need = num * total
    for width in range(1, size + 1):
        best = None
        for lo in range(size - width + 1):
            window = prefix[lo + width] - prefix[lo]
            if window * den >= need:
                asymmetry = abs(2 * lo + width - 1 - 2 * mode_index)
                candidate = (-window, asymmetry, lo)
                if best is None or candidate < best:
                    best = candidate
        if best is not None:
            _, _, lo = best
            hi = lo + width - 1
            window = prefix[hi + 1] - prefix[lo]
            return dist.support[lo], dist.support[hi], Fraction(window, total)


def hpd_interval(dist: DiscreteDistribution, level: float = 0.95) -> IntervalEstimate:
    """Highest-density window as an interval; the point is the mode."""
    lo, hi, _ = hpd_window(dist, level)
    return IntervalEstimate(
        point=float(dist.mode()),
        lower=float(lo),
        upper=float(hi),
        level=level,
        method="bayes-hpd",
    )
