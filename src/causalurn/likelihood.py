"""Exact randomization likelihood over (n11, n10) for a fixed harmed count.

The treatment arm of a completely randomized experiment is a draw of N1
balls, without replacement, from an urn holding one ball per unit typed by
its potential outcomes. For a fixed number of harmed units the urn
composition is pinned down by (n11, n10), and the chance of the observed
table is a multivariate hypergeometric sum

    sum_x C(n11, x) C(n10, n11_obs - x) C(n01, n01 + n11 - n01_obs - x)
          C(n00, n10_obs + n01_obs + x - n01 - n11)  /  C(N, N1)

over the feasible counts x of always-responders assigned to treatment
(n00 = N - n11 - n10 - n01). With no harmed units the sum collapses to a
single term. Every point shares the denominator C(N, N1), so the sum is
evaluated as an exact integer numerator at every population size: argmax
sets and posterior masses are decided on those integers, and a float
appears only when a caller asks for a log-likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .tables import (
    InfeasibleError,
    ObservedTable,
    ParameterPoint,
    support_rows,
)

#: Log of an impossible event; compares below every finite log-likelihood.
LOG_ZERO = float("-inf")


def _x_range(obs: ObservedTable, n11: int, n10: int, n01: int) -> tuple[int, int]:
    # Bounds on the number of always-responders assigned to treatment; the
    # point has positive likelihood exactly when lo <= hi.
    lo = max(
        0,
        obs.n11 - n10,
        n11 - obs.n01,
        n01 + n11 - obs.n10 - obs.n01,
    )
    hi = min(
        n11,
        obs.n11,
        n01 + n11 - obs.n01,
        obs.total - n10 - obs.n10 - obs.n01,
    )
    return lo, hi


def _numerator(obs: ObservedTable, n11: int, n10: int, n01: int) -> int:
    """The likelihood times C(N, N1), an exact integer; 0 off the support."""
    n00 = obs.total - n11 - n10 - n01
    if n00 < 0:
        return 0
    lo, hi = _x_range(obs, n11, n10, n01)
    return sum(
        math.comb(n11, x)
        * math.comb(n10, obs.n11 - x)
        * math.comb(n01, n01 + n11 - obs.n01 - x)
        * math.comb(n00, obs.n10 + obs.n01 + x - n01 - n11)
        for x in range(lo, hi + 1)
    )


def _grid(obs: ObservedTable, n01: int) -> Iterator[tuple[int, int, int]]:
    """``(n11, n10, numerator)`` over the support, in (n11, n10) order.

    Every numerator is positive. Raises InfeasibleError, before the walk
    starts, when the support is empty.
    """
    rows = support_rows(obs, n01)
    if not any(n10s for _, n10s in rows):
        raise InfeasibleError(f"empty likelihood support at n01={n01}")
    return (
        (n11, n10, _numerator(obs, n11, n10, n01))
        for n11, n10s in rows
        for n10 in n10s
    )


def _log_likelihood(obs: ObservedTable, numerator: int) -> float:
    if not numerator:
        return LOG_ZERO
    return math.log(numerator) - math.log(math.comb(obs.total, obs.n_treated))


def likelihood_exact(obs: ObservedTable, point: ParameterPoint) -> Fraction:
    """The likelihood as an exact rational; 0 off the support."""
    numerator = _numerator(obs, point.n11, point.n10, point.n01)
    return Fraction(numerator, math.comb(obs.total, obs.n_treated))


def loglik_general(obs: ObservedTable, point: ParameterPoint) -> float:
    """Log-likelihood of (n11, n10) given the point's harmed count.

    The exact numerator and denominator are each logged once; LOG_ZERO
    wherever the point lies off the feasible region.
    """
    return _log_likelihood(obs, _numerator(obs, point.n11, point.n10, point.n01))


def loglik_monotone(obs: ObservedTable, point: ParameterPoint) -> float:
    """Log-likelihood of (n11, n10) when no unit is harmed.

    LOG_ZERO outside the feasible region. The point must carry n01 = 0,
    where the inner sum is one integer product, so this equals
    :func:`loglik_general` bit for bit.
    """
    if point.n01 != 0:
        raise ValueError("monotone likelihood requires a point with n01 = 0")
    return loglik_general(obs, point)


@dataclass(frozen=True)
class MaxLikelihood:
    """Argmax set of the likelihood; ties are preserved, never broken."""

    points: tuple[ParameterPoint, ...]
    tau_values: tuple[Fraction, ...]
    log_likelihood: float


def mle(obs: ObservedTable, n01: int = 0) -> MaxLikelihood:
    """Maximum-likelihood point(s) and the implied effect value(s).

    The argmax compares exact integer numerators at every population size,
    so every genuine discrete tie survives.
    """
    best, argmax = 0, []
    for n11, n10, numerator in _grid(obs, n01):
        if numerator > best:
            best, argmax = numerator, [(n11, n10)]
        elif numerator == best:
            argmax.append((n11, n10))
    points = tuple(ParameterPoint(n11, n10, n01) for n11, n10 in argmax)
    total = obs.total
    tau_values = tuple(sorted({Fraction(n10 - n01, total) for _, n10 in argmax}))
    return MaxLikelihood(
        points=points,
        tau_values=tau_values,
        log_likelihood=_log_likelihood(obs, best),
    )
