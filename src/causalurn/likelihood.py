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

The support is walked row by row. With n11 fixed, write j = n11_obs - x
and c = n10_obs + n01_obs + x - n01 - n11; a step from n10 - 1 to n10
multiplies each term by the exact integer ratio

    n10 (n00 + 1 - c) / ((n10 - j) (n00 + 1))

with n00 taken at the new point. Both ends of the x range only fall as n10
grows, so at each step at most one term leaves at the top and at most one,
computed from its binomials, enters at the bottom. A row's sum over n10 has
a closed form: with M = N - n11 - n01, the Chu-Vandermonde identity
sum_n10 C(n10, j) C(M - n10, c) = C(M + 1, j + c + 1) gives

    sum_x C(n11, x) C(n01, n01 + n11 - n01_obs - x) C(M + 1, j + c + 1)

where j + c = N - n00_obs - n01 - n11 is the same at every x.
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


def _terms(obs: ObservedTable, n11: int, n10: int, n01: int, xs: range) -> list[int]:
    # The inner-sum terms at (n11, n10) for x in xs, each from its binomials.
    n00 = obs.total - n11 - n10 - n01
    return [
        math.comb(n11, x)
        * math.comb(n10, obs.n11 - x)
        * math.comb(n01, n01 + n11 - obs.n01 - x)
        * math.comb(n00, obs.n10 + obs.n01 + x - n01 - n11)
        for x in xs
    ]


def _numerator(obs: ObservedTable, n11: int, n10: int, n01: int) -> int:
    """The likelihood times C(N, N1), an exact integer; 0 off the support."""
    if obs.total - n11 - n10 - n01 < 0:
        return 0
    lo, hi = _x_range(obs, n11, n10, n01)
    return sum(_terms(obs, n11, n10, n01, range(lo, hi + 1)))


def _rows(obs: ObservedTable, n01: int) -> list[tuple[int, range]]:
    # The support rows; InfeasibleError when they hold no point.
    rows = support_rows(obs, n01)
    if not any(n10s for _, n10s in rows):
        raise InfeasibleError(f"empty likelihood support at n01={n01}")
    return rows


def _walk(obs: ObservedTable, n01: int, rows) -> Iterator[tuple[int, int, int]]:
    # Each row's first point is summed from binomials; every later point
    # steps the terms by the row ratio, which is zero for the term that
    # leaves at the top, and builds only the term that enters at the bottom.
    for n11, n10s in rows:
        first = n10s[0]
        lo, hi = _x_range(obs, n11, first, n01)
        floor = _x_range(obs, n11, n10s[-1], n01)[0]  # lo at the row's end
        terms = _terms(obs, n11, first, n01, range(lo, hi + 1))
        yield n11, first, sum(terms)
        c0 = obs.n10 + obs.n01 - n01 - n11  # c = c0 + x
        m = obs.total - n11 - n01  # n00 = m - n10
        for n10 in n10s[1:]:
            n00 = m + 1 - n10  # n00 + 1 at this point: the previous point's n00
            # n00 + 1 - c = top - x and n10 - j = bottom + x
            top, bottom = n00 - c0, n10 - obs.n11
            terms = [
                t * (n10 * (top - x)) // ((bottom + x) * n00)
                for x, t in enumerate(terms, lo)
            ]
            if not terms[-1]:
                terms.pop()
            if lo > floor:  # lo was n11_obs - n10 + 1; x = lo - 1 has j = n10
                lo -= 1
                terms[:0] = _terms(obs, n11, n10, n01, range(lo, lo + 1))
            yield n11, n10, sum(terms)


def _grid(obs: ObservedTable, n01: int) -> Iterator[tuple[int, int, int]]:
    """``(n11, n10, numerator)`` over the support, in (n11, n10) order.

    Every numerator is positive and equals :func:`_numerator` at its point.
    Raises InfeasibleError, before the walk starts, when the support is
    empty.
    """
    return _walk(obs, n01, _rows(obs, n01))


def _row_sums(obs: ObservedTable, n01: int) -> list[tuple[int, int]]:
    """``(n11, sum of the numerators over the row's n10)`` over the support.

    Every sum is positive and comes from the Chu-Vandermonde closed form in
    the module docstring, in time linear in the row's x range. Raises
    InfeasibleError when the support is empty.
    """
    total = obs.total
    sums = []
    for n11, n10s in _rows(obs, n01):
        # The x range falls as n10 grows, and an x with j, c >= 0 and
        # C(n11, x) C(n01, .) > 0 has a positive term at n10 = j (as
        # j + c <= M): the row's x values run from lo at its last point to
        # hi at its first.
        lo = _x_range(obs, n11, n10s[-1], n01)[0]
        hi = _x_range(obs, n11, n10s[0], n01)[1]
        m = total - n11 - n01
        width = total - obs.n00 - n01 - n11  # j + c, the same at every x
        sums.append((n11, math.comb(m + 1, width + 1) * sum(
            math.comb(n11, x) * math.comb(n01, n01 + n11 - obs.n01 - x)
            for x in range(lo, hi + 1)
        )))
    return sums


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
