"""Science and observed 2x2 tables for binary randomized experiments.

A completely randomized experiment with a binary outcome is fully described
by four fixed counts of potential-outcome types (the science table) and is
summarized, once run, by four observed counts classified by treatment and
observed outcome. These two tables, the parameter points used by the
likelihood machinery, and the feasibility regions that connect them all
live here. Everything is exact integer arithmetic: region predicates never
touch floating point.

The likelihood at (n11, n10) given n01 harmed units counts the assignments
that yield the observed table; run (k, x) holds those that treat k harmed
units and x always-responders. Their treated successes are x
always-responders and j = n11_obs - x helped units, their treated failures
k harmed and n10_obs - k never-responders, and their control successes
n11 - x always-responders and n01 - k harmed units. So the runs form the box

    max(0, n01 - n01_obs) <= k <= min(n01, n10_obs),   0 <= x <= n11_obs,

and over the harmed counts lo..hi, k runs from max(0, lo - n01_obs) to
min(hi, n10_obs). Run (k, x) lies in row n11 = k + x + n01_obs - n01 and is
positive on the n10 window [j, j + n00_obs], as the control failures hold
the other n10 - j helped units. A support row is a diagonal of the box, its
n10 range the union of its runs' windows; ``_rows`` states each row once.
Over the harmed counts lo..hi it states each diagonal of their box once,
labelled by its n11 at lo, with every run it holds: the union of the
one-count rows on that diagonal, count n01 holding the runs with
k <= n01 <= k + n01_obs.
The box is empty exactly when n01 > n10_obs + n01_obs; at n01 = 0 each row
holds one run, so the support has (n11_obs + 1) * (n00_obs + 1) points.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable


class InfeasibleError(ValueError):
    """Requested inputs are incompatible with the observed data."""


def _integer(value, name: str) -> int:
    """``value`` as an int, not a bool; a TypeError naming ``name`` otherwise."""
    try:
        if isinstance(value, bool):  # operator.index would take True as 1
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _count(value, name: str, positive: bool = False) -> int:
    """The one count rule: an ``_integer``, nonnegative (positive when asked);
    a TypeError or ValueError naming ``name`` otherwise."""
    if (count := _integer(value, name)) < positive:  # 1 when positive, else 0
        raise ValueError(f"{name} must be {'positive' if positive else 'nonnegative'}, got {count}")
    return count


def _exact(value, name: str) -> Fraction:
    """The one exact-number rule: ``value`` as an exact rational, after checking
    it is a finite real number; a ValueError naming ``name`` otherwise."""
    try:
        if isinstance(value, (str, bytes, bool)):  # a string would parse, a bool count as 1
            raise TypeError
        return Fraction(value)
    except TypeError:
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    except (ValueError, OverflowError):  # a NaN, an infinity
        raise ValueError(f"{name} must be finite") from None


def _counts(table, names: tuple) -> None:
    for name in names:  # each field through _count, unless a plain nonnegative int already
        if type(value := getattr(table, name)) is not int or value < 0:
            object.__setattr__(table, name, _count(value, name))


def _n_control(total: int, n_treated: int) -> int:
    """N0 = N - N1, after checking that N1 is an ``_integer`` and both arms are nonempty."""
    if not 1 <= _integer(n_treated, "n_treated") <= total - 1:
        raise ValueError("both arms must contain at least one unit")
    return total - n_treated


def _level(value, name: str = "level") -> tuple[int, int]:
    """The exact ratio of a level or alpha; a ValueError naming ``name`` unless 0 < value < 1."""
    try:
        if 0 < value < 1:
            return value.as_integer_ratio()
    except TypeError:
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    raise ValueError(f"{name} must be in (0, 1), got {value}")


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
        _counts(self, ("n11", "n10", "n01", "n00"))
        if self.total < 2:
            raise ValueError("science table needs at least 2 units")

    @property
    def total(self) -> int:
        return self.n11 + self.n10 + self.n01 + self.n00

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
        _counts(self, ("n11", "n10", "n01", "n00"))
        _n_control(self.total, self.n_treated)

    @property
    def total(self) -> int:
        return self.n11 + self.n10 + self.n01 + self.n00

    @property
    def n_treated(self) -> int:
        return self.n11 + self.n10

    @property
    def n_control(self) -> int:
        return self.n01 + self.n00


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
        _counts(self, ("n11", "n10", "n01"))


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
        _level(self.level)
        if self.lower > self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")

    @property
    def length(self) -> float:
        return self.upper - self.lower


def monotone_support(obs: ObservedTable) -> tuple[ParameterPoint, ...]:
    """All (n11, n10) with positive likelihood when no unit is harmed: the
    general support at ``n01 = 0``, always ``(n11_obs + 1) * (n00_obs + 1)``
    points (see the module docstring)."""
    return general_support(obs, 0)


def _run_box(obs: ObservedTable, lo: int, hi: int) -> tuple[range, range]:
    # The runs (k, x) at the harmed counts lo..hi (see the module docstring).
    return range(max(0, lo - obs.n01), min(hi, obs.n10) + 1), range(obs.n11 + 1)


def _rows(obs: ObservedTable, n01: int, n11s: Iterable[int] | None = None,
          last: int | None = None) -> list:
    # Each support row at harmed count n01 as (n11, its n10 window, the x of its
    # runs): every row, or only those of n11s that hold a run. Row n11 is the
    # box's diagonal k + x = n11 + n01 - n01_obs: its x lie in [n11 + lo, n11 + hi).
    # Over the counts n01..last, a row is a diagonal of their box, labelled by
    # its n11 at n01, with the x and windows of every run it holds.
    ks, xs = _run_box(obs, n01, n01 if last is None else last)
    lo, hi = n01 - obs.n01 - ks.stop + 1, n01 - obs.n01 - ks.start + 1
    if n11s is None:
        n11s = range(1 - hi, xs.stop - lo) if ks else range(0)  # no run, so no row
        len(n11s)  # OverflowError, before the walk, on more rows than sys.maxsize
    rows = []
    for n11 in n11s:
        if row := range(max(0, n11 + lo), min(xs.stop, n11 + hi)):
            rows.append((n11, range(obs.n11 - row[-1], obs.n11 + obs.n00 - row[0] + 1), row))
    return rows


def general_support(obs: ObservedTable, n01: int) -> tuple[ParameterPoint, ...]:
    """All (n11, n10) with positive likelihood given ``n01`` harmed units.

    Returns the empty tuple when ``n01`` is infeasible for this data, which
    happens exactly when ``n01 > n10_obs + n01_obs``. At ``n01 = 0`` this is
    :func:`monotone_support`.
    """
    return tuple(
        ParameterPoint(n11=n11, n10=n10, n01=n01)
        for n11, n10s, _ in _rows(obs, _count(n01, "n01"))
        for n10 in n10s
    )


def in_general_support(obs: ObservedTable, point: ParameterPoint) -> bool:
    """O(1) membership test equivalent to ``point in general_support(...)``."""
    rows = _rows(obs, point.n01, range(point.n11, point.n11 + 1))
    return any(point.n10 in n10s for _, n10s, _ in rows)
