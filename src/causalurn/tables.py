"""Science and observed 2x2 tables for binary randomized experiments.

A completely randomized experiment with a binary outcome is fully described
by four fixed counts of potential-outcome types (the science table) and is
summarized, once run, by four observed counts classified by treatment and
observed outcome. These two tables, the parameter points used by the
likelihood machinery, and the feasibility regions that connect them all
live here. Everything is exact integer arithmetic: region predicates never
touch floating point.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction


class InfeasibleError(ValueError):
    """Requested inputs are incompatible with the observed data."""


def _count(value, name: str) -> int:
    try:
        count = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if count < 0:
        raise ValueError(f"{name} must be nonnegative, got {count}")
    return count


@dataclass(frozen=True)
class ScienceTable:
    """Counts of units by potential-outcome type.

    ``n11`` units respond under both arms, ``n10`` respond only under
    treatment (helped), ``n01`` respond only under control (harmed), and
    ``n00`` respond under neither. The table is fixed; randomization of the
    treatment assignment is the only source of randomness downstream.
    """

    n11: int
    n10: int
    n01: int
    n00: int

    def __post_init__(self) -> None:
        for name in ("n11", "n10", "n01", "n00"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        if self.total < 2:
            raise ValueError("science table needs at least 2 units")

    @property
    def total(self) -> int:
        return self.n11 + self.n10 + self.n01 + self.n00

    @property
    def p1(self) -> Fraction:
        return Fraction(self.n11 + self.n10, self.total)

    @property
    def p0(self) -> Fraction:
        return Fraction(self.n11 + self.n01, self.total)

    @property
    def tau(self) -> Fraction:
        """Average causal effect (n10 - n01) / N."""
        return Fraction(self.n10 - self.n01, self.total)

    @property
    def parameter_point(self) -> "ParameterPoint":
        return ParameterPoint(n11=self.n11, n10=self.n10, n01=self.n01)


@dataclass(frozen=True)
class ObservedTable:
    """Cell counts of a realized experiment, classified by (arm, outcome).

    ``n11`` treated successes, ``n10`` treated failures, ``n01`` control
    successes, ``n00`` control failures. Both arms must be nonempty.
    """

    n11: int
    n10: int
    n01: int
    n00: int

    def __post_init__(self) -> None:
        for name in ("n11", "n10", "n01", "n00"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        if self.n_treated < 1 or self.n_control < 1:
            raise ValueError("both arms must contain at least one unit")

    @property
    def total(self) -> int:
        return self.n11 + self.n10 + self.n01 + self.n00

    @property
    def n_treated(self) -> int:
        return self.n11 + self.n10

    @property
    def n_control(self) -> int:
        return self.n01 + self.n00

    @property
    def p1_hat(self) -> Fraction:
        return Fraction(self.n11, self.n_treated)

    @property
    def p0_hat(self) -> Fraction:
        return Fraction(self.n01, self.n_control)


@dataclass(frozen=True, order=True)
class ParameterPoint:
    """A candidate science table, parameterized by (n11, n10) for fixed n01.

    The implied count of never-responders is ``N - n11 - n10 - n01`` and must
    be nonnegative; that constraint involves the population size and is
    enforced by the support constructors, not by the type itself. Ordering is
    lexicographic in (n11, n10), the iteration order of every support.
    """

    n11: int
    n10: int
    n01: int = 0

    def __post_init__(self) -> None:
        for name in ("n11", "n10", "n01"):
            object.__setattr__(self, name, _count(getattr(self, name), name))


INTERVAL_METHODS = (
    "neyman",
    "neyman-classic",
    "improved",
    "sensitivity",
    "bayes-hpd",
    "exact-inversion",
    "prediction",
)


@dataclass(frozen=True)
class IntervalEstimate:
    """A point estimate with an interval at a confidence/credibility level.

    ``lower <= point <= upper`` is not guaranteed for exact-inversion
    results, where the point is a summary of a possibly plural estimate set.
    """

    point: float
    lower: float
    upper: float
    level: float
    method: str

    def __post_init__(self) -> None:
        if self.method not in INTERVAL_METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {self.level}")
        if self.lower > self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")

    @property
    def length(self) -> float:
        return self.upper - self.lower


def monotone_support(obs: ObservedTable) -> tuple[ParameterPoint, ...]:
    """All (n11, n10) with positive likelihood when no unit is harmed.

    The region is ``n01_obs <= n11 <= n11_obs + n01_obs <= n10 + n11
    <= N - n10_obs`` and always contains exactly
    ``(n11_obs + 1) * (n00_obs + 1)`` points: the general support at
    ``n01 = 0``.
    """
    return general_support(obs, 0)


def _n11_range(obs: ObservedTable, n01: int) -> range:
    # The support's n11 values given n01 harmed units; empty when n01 is
    # infeasible, which happens exactly when n01 > n10_obs + n01_obs.
    if n01 > obs.n10 + obs.n01:
        return range(0)
    hi = min(obs.n01 + obs.n11, obs.total - obs.n00 - n01)
    return range(max(0, obs.n01 - n01), hi + 1)


def _n10_range(obs: ObservedTable, n01: int, n11: int) -> range:
    # The support's n10 values in row n11: the row sum n10 + n11 runs from
    # max(n11_obs + n01_obs - n01, n11_obs) to N - n10_obs, n10 is at most
    # N - n01_obs - n10_obs, and n00 = N - n11 - n10 - n01 is nonnegative.
    total = obs.total
    lo = max(0, obs.n11 + obs.n01 - n01 - n11, obs.n11 - n11)
    hi = min(total - obs.n01 - obs.n10, total - obs.n10 - n11, total - n01 - n11)
    return range(lo, hi + 1)


def support_rows(obs: ObservedTable, n01: int) -> list[tuple[int, range]]:
    """The general support as rows ``(n11, range of n10)``, in (n11, n10) order.

    Every point the rows cover has positive likelihood given ``n01`` harmed
    units, and no other point does. Empty when ``n01`` is infeasible.
    """
    n01 = _count(n01, "n01")
    return [(n11, _n10_range(obs, n01, n11)) for n11 in _n11_range(obs, n01)]


def general_support(obs: ObservedTable, n01: int) -> tuple[ParameterPoint, ...]:
    """All (n11, n10) with positive likelihood given ``n01`` harmed units.

    Returns the empty tuple when ``n01`` is infeasible for this data, which
    happens exactly when ``n01 > n10_obs + n01_obs``; sensitivity sweeps can
    then skip the value gracefully. At ``n01 = 0`` this is
    :func:`monotone_support`.
    """
    return tuple(
        ParameterPoint(n11=n11, n10=n10, n01=n01)
        for n11, n10s in support_rows(obs, n01)
        for n10 in n10s
    )


def in_general_support(obs: ObservedTable, point: ParameterPoint) -> bool:
    """O(1) membership test equivalent to ``point in general_support(...)``."""
    n01, n11 = point.n01, point.n11
    return n11 in _n11_range(obs, n01) and point.n10 in _n10_range(obs, n01, n11)
