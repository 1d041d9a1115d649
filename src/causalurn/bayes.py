"""Posterior inference over the likelihood support for a fixed harmed count.

With the harmed count held fixed, the posterior over (n11, n10) under any
prior is proportional to prior weight times the randomization likelihood,
normalized over the finite support. Posteriors of derived quantities (the
average effect, the attributable effect) are pushforwards of that point
posterior. Every distribution holds integer weights over their total, built
from the likelihood's integer numerators, so modes and highest-density windows
are decided on integers at every N. The support is held as integer ``values``
over one ``denominator``, N for tau and 1 for A; ``support``, ``mass``, ``mode``,
``median`` and ``hpd_window`` build the exact rationals they return on read.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .likelihood import _check_support, _columns, _grid, _numerator, _row_sums
from .tables import (
    InfeasibleError,
    IntervalEstimate,
    ObservedTable,
    ParameterPoint,
    _count,
    _exact,
    _level,
    _rows,
)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Integer weights w on the strictly increasing support values / denominator; p = w / total."""

    values: tuple
    weights: tuple
    denominator: int = 1

    def __post_init__(self) -> None:
        if len(self.values) != len(self.weights):
            raise ValueError("support and weights must align")
        if not self.values:
            raise ValueError("empty distribution")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("support must be strictly increasing")
        if any(type(w) is not int or w < 0 for w in self.weights):  # a bool is no weight
            raise ValueError("weights must be nonnegative integers")
        if not any(self.weights):
            raise ValueError("weights must have a positive sum")
        if type(self.denominator) is not int or self.denominator < 1:
            raise ValueError(f"denominator must be a positive integer, got {self.denominator!r}")

    @property
    def support(self) -> tuple:
        """``values``, each over ``denominator`` unless that is 1."""
        d = self.denominator
        return self.values if d == 1 else tuple(Fraction(v, d) for v in self.values)

    def _at(self, index: int):
        value = self.values[index]
        return value if self.denominator == 1 else Fraction(value, self.denominator)

    @property
    def total(self) -> int:
        return sum(self.weights)

    @property
    def mass(self) -> tuple[Fraction, ...]:
        total = self.total
        return tuple(Fraction(w, total) for w in self.weights)

    def mode(self):
        """Smallest support value attaining the maximum weight."""
        return self._at(self.weights.index(max(self.weights)))

    def median(self):
        """Smallest support value whose cumulative mass reaches one half.

        For the worked example it stays at 16/53 for n01 = 0..10, as the mode
        stays at 17/53; both move at n01 = 11.
        """
        total = self.total
        for index, cumulative in enumerate(accumulate(self.weights)):
            if 2 * cumulative >= total:
                return self._at(index)


def _prior_point(n11, n10, w) -> tuple:
    """``Prior``'s rule for one entry: ``_count``'s counts and ``_exact``'s weight; a
    weight that is not a finite nonnegative number is a ValueError naming its point."""
    at = f"prior weight at (n11, n10) = ({n11}, {n10})"
    weight = _exact(w, at)
    if weight < 0:
        raise ValueError(f"{at} must be nonnegative, got {w!r}")
    return (_count(n11, "n11"), _count(n10, "n10")), weight


@dataclass(frozen=True)
class Prior:
    """Prior weights over the (n11, n10) grid at the posterior's harmed count.

    ``weights`` None is the uniform prior. A table maps ``(n11, n10)`` to a
    nonnegative weight, held as an exact rational in a read-only mapping;
    points absent from the table carry weight zero. Equal priors hash
    equal. No parametric families: the module stays model-free.
    """

    weights: Optional[Mapping[tuple[int, int], Fraction]] = None

    def __post_init__(self) -> None:
        if self.weights is None:
            return
        table = dict(  # each entry through _prior_point, unless already a checked one
            ((n11, n10), w) if type(n11) is type(n10) is int and type(w) is Fraction
            and min(n11, n10, w.numerator) >= 0 else _prior_point(n11, n10, w)
            for (n11, n10), w in self.weights.items())
        if not any(table.values()):
            raise ValueError("prior must put positive weight somewhere")
        object.__setattr__(self, "weights", MappingProxyType(table))

    def __hash__(self) -> int:
        return hash(None if self.weights is None else frozenset(self.weights.items()))


UNIFORM = Prior()


def _weighted(
    obs: ObservedTable, n01: int, prior: Prior
) -> list[tuple[int, int, int]]:
    """``(n11, n10, prior weight x likelihood numerator)`` at the table prior's
    points wherever positive, each positive weight scaled once to its integer
    over the lcm of their denominators. A support row is walked by
    :func:`likelihood._grid` when its positive prior points times its runs
    reach its window length; every other point takes
    :func:`likelihood._numerator`'s urn sum. The caller checks the support;
    raises InfeasibleError when the prior annihilates it.
    """
    scale = math.lcm(*(w.denominator for w in prior.weights.values()))
    table = {p: w.numerator * (scale // w.denominator) for p, w in prior.weights.items() if w}
    points = Counter(n11 for n11, _ in table)  # the prior's positive points per row n11
    # The one per-row rule: a row is walked once its points' urn sums, a term
    # per point and run, would reach its window length.
    walk = [n11 for n11, n10s, xs in _rows(obs, n01, sorted(points))
            if points[n11] * len(xs) >= len(n10s)]
    walked = set(walk)
    rows = [(n11, n10, w * numerator)
            for _, n11, n10s, numerators in _grid(obs, range(n01, n01 + 1), walk)
            for n10, numerator in zip(n10s, numerators) if (w := table.get((n11, n10)))]
    rows += [(n11, n10, weight) for (n11, n10), w in table.items()
             if n11 not in walked and (weight := w * _numerator(obs, n11, n10, n01))]
    if not rows:
        raise InfeasibleError("prior assigns zero weight to the entire support")
    return rows


def posterior_points(
    obs: ObservedTable, n01: int = 0, prior: Prior = UNIFORM
) -> DiscreteDistribution:
    """Posterior over support points: prior times likelihood, normalized.

    Weights are prior weight times likelihood numerator; under the uniform
    prior the posterior is exactly the normalized likelihood. Raises
    InfeasibleError on an empty support or one the prior annihilates.
    """
    _check_support(obs, n01)
    if prior.weights is None:
        rows = _grid(obs, range(n01, n01 + 1))
    else:
        table = {(n11, n10): w for n11, n10, w in _weighted(obs, n01, prior)}
        rows = ((n01, n11, n10s, [table.get((n11, n10), 0) for n10 in n10s])
                for n11, n10s, _ in _rows(obs, n01))
    return DiscreteDistribution(*zip(*(
        (ParameterPoint(n11, n10, n01), w) for _, n11, n10s, ws in rows for n10, w in zip(n10s, ws)
    )))


def _pushforward(pairs: Iterable, fn: Callable, denominator: int = 1) -> DiscreteDistribution:
    # Weights are summed per grid coordinate; the support is where mass lives.
    sums: dict = {}
    for key, weight in pairs:
        sums[key] = sums.get(key, 0) + weight
    values, weights = zip(*sorted((fn(key), weight) for key, weight in sums.items()))
    return DiscreteDistribution(values, weights, denominator)


def tau_posterior(
    obs: ObservedTable, n01: int = 0, prior: Prior = UNIFORM
) -> DiscreteDistribution:
    """Posterior of the average causal effect, on the grid (k - n01)/N.

    Under the uniform prior the weights are the likelihood's n10 columns,
    built as the one-slot case of :func:`tau_posterior_sweep`; the
    ``likelihood`` module docstring gives the runs that sweep walks, its
    slot width and its cost. A table prior weighs its own points. Raises
    InfeasibleError when the support is empty or the prior annihilates it.
    """
    _check_support(obs, n01)
    if prior.weights is None:
        return next(tau_posterior_sweep(obs, range(n01, n01 + 1)))
    return _pushforward(((n10, w) for _, n10, w in _weighted(obs, n01, prior)),
                        lambda n10: n10 - n01, obs.total)


def tau_posterior_sweep(
    obs: ObservedTable, n01s: range
) -> Iterator[Optional[DiscreteDistribution]]:
    """Yields the uniform-prior tau posterior at each harmed count of the
    consecutive ``n01s`` in order, None where that count is infeasible.

    One walk of the likelihood's (s, x) runs, made at the call, serves every
    count (see ``likelihood``), so the sweep costs the terms of its distinct
    runs, not one grid walk per harmed count. Each distribution is built as
    it is read. Raises ValueError unless ``n01s`` is a range stepping by +1.
    """
    sweep = zip(n01s, _columns(obs, n01s))  # ValueError unless a +1 range
    pairs = ([(n10 - n01, w) for n10, w in enumerate(columns) if w] for n01, columns in sweep)
    return (DiscreteDistribution(*zip(*p), obs.total) if p else None for p in pairs)


def a_posterior(
    obs: ObservedTable, n01: int = 0, prior: Prior = UNIFORM
) -> DiscreteDistribution:
    """Posterior of the attributable effect A = n11_obs + n01_obs - n01 - n11.

    Under the uniform prior each n11 weight is the likelihood's row sum,
    taken in closed form and walked down the rows (see ``likelihood``); a
    table prior weighs its own points. Raises InfeasibleError when the
    support is empty or the prior annihilates it.
    """
    _check_support(obs, n01)
    base = obs.n11 + obs.n01 - n01
    if prior.weights is None:
        pairs = _row_sums(obs, n01)
    else:
        pairs = ((n11, w) for n11, _, w in _weighted(obs, n01, prior))
    return _pushforward(pairs, lambda n11: base - n11)


def hpd_window(dist: DiscreteDistribution, level: float) -> tuple:
    """Smallest contiguous support window holding at least ``level`` mass.

    Among windows of minimal width the one with the larger mass wins; any
    remaining tie goes to the window most symmetric around the mode, then
    to the leftmost. Returns (low value, high value, window mass). Window
    weights are compared with the level's exact value: w * den >= num * total.
    The search is one two-pointer scan over the prefix sums, since the first
    end holding the level never moves left as the start moves right. Each
    start's window to its first end, the narrowest from it that holds the
    level, is keyed (width, -weight, distance from the mode, start), and the
    least key wins: every window of minimal width holding the level is keyed.
    """
    num, den = _level(level)
    weights = dist.weights
    size = len(weights)
    mode_index = weights.index(max(weights))
    prefix = [0, *accumulate(weights)]
    total = prefix[-1]
    # The whole support holds total >= level * total, so some start has a key,
    # and each key sorts before (size + 1,); level > 0, so each window holding
    # it is at least one point wide.
    need = num * total
    end, best = 0, (size + 1,)
    for lo in range(size):
        while end < size and (prefix[end] - prefix[lo]) * den < need:
            end += 1
        if (window := prefix[end] - prefix[lo]) * den < need:
            break
        best = min(best, (end - lo, -window, abs(lo + end - 1 - 2 * mode_index), lo))
    width, window, _, lo = best
    return dist._at(lo), dist._at(lo + width - 1), Fraction(-window, total)


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
