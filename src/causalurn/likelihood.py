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

The support is walked in runs. Write s = n11 + n01, j = n11_obs - x,
c = n10_obs + n01_obs - s + x and m = N - s (so n00 = m - n10). The x term
is a_x C(n10, j) C(m - n10, c) with a_x = C(s - n01, x) C(n01, k) and
k = s - n01_obs - x, so its n10 profile, the (s, x) run, depends on s and x
alone. Which runs have a_x > 0, their rows and their windows [j, m - c] are
the run box of the ``tables`` module docstring. A run is seeded at n10 = j,
where it is a_x C(m - j, c); from n10 = n to n + 1 its term t steps to

    t (n + 1) (m - n - c) // ((n + 1 - j) (m - n)),

every division exact. A grid at one harmed count adds each row's runs, one
per x, into the row, at a cost of its inner-sum terms; one point is the
plain sum above, ``_numerator``, over the x of its row's runs. A grid over
a range of harmed counts walks each diagonal s of the range's run box once,
as its rows are read, each run of it once from its packed seeds (below),
into one list over the diagonal's window; count n01 reads its row off its
own slot, over the windows of the runs that reach it,
k <= n01 <= k + n01_obs. So it costs the terms of the range's distinct
(s, x) runs, not one grid per count, and one count is the range of one.

Only the seed factor depends on the harmed count, and a_x(n01) is positive
for n01 in [k, k + n01_obs], the box's k bounds read the other way. A
sensitivity sweep over n01 in [lo, hi] therefore walks each (s, x) run
once, from the seeds of every count it reaches packed into one integer,
sum_n01 a_x(n01) 2^(w (n01 - lo)) with w the bit length of C(N, N1). The
exact step holds on the packed integer: every slot steps by the same ratio
and is divisible on its own. No slot carries into the next: a slot adds up
one n10 column of one harmed count, which is at most C(N, N1) < 2^w. Proof:
with n10 and n01 fixed, label the units so that raising n11 by one turns
one never-responder into an always-responder; whichever arm that unit is
in, the observed successes n11_obs + n01_obs rise by one. So each of the
C(N, N1) treatment assignments yields the observed table for at most one
n11, and the column counts those (assignment, n11) pairs. A sweep costs the
terms of its distinct (s, x) runs, not one grid walk per harmed count, and
a run packs only the slots it reaches. Which counts those are,
max(lo, k)..min(hi, k + n01_obs), is stated once, in ``_pack``, for the
sweep and the grid alike.

A row's sum over n10 has a closed form: Chu-Vandermonde,
sum_n10 C(n10, j) C(m - n10, c) = C(m + 1, j + c + 1) = C(m + 1, n00_obs)
as m - c = j + n00_obs, gives

    C(m + 1, n00_obs) sum_x C(n11, x) C(n01, n01 + n11 - n01_obs - x).

The row sums walk it down the rows n11, as the p-value curve walks s. Run
k's term a_x = C(n11, x) C(n01, k) moves to the next row with x, so it
steps by n11 / x = (s - n01) / x from the row above, entering at x = 0
as its seed; the factor steps by (m + 2 - n00_obs) / (m + 2) as m falls
by one. Both divisions are exact, and a row costs one step per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .tables import (
    InfeasibleError,
    ObservedTable,
    ParameterPoint,
    _count,
    _rows,
    _run_box,
)

#: Log of an impossible event; compares below every finite log-likelihood.
LOG_ZERO = float("-inf")


def _numerator(obs: ObservedTable, n11: int, n10: int, n01: int) -> int:
    """The likelihood times C(N, N1) at one point, as the plain urn sum over x."""
    n00 = obs.total - n11 - n10 - n01
    if n00 < 0:
        return 0
    d = n01 + n11 - obs.n01  # k + x, over the x where every lower index is in range
    return sum(math.comb(n11, x) * math.comb(n10, obs.n11 - x) * math.comb(n01, d - x)
               * math.comb(n00, obs.n10 - d + x)
               for x in range(max(0, d - n01, d - obs.n10), min(n11, obs.n11, d) + 1))


def _check_support(obs: ObservedTable, n01: int) -> None:
    # InfeasibleError when the support holds no point: its run box is empty.
    if not _run_box(obs, _count(n01, "n01"), n01)[0]:
        raise InfeasibleError(f"empty likelihood support at n01={n01}")


def _seed(obs: ObservedTable, s: int, x: int, n01: int) -> int:
    # The (s, x) run's seed a_x(n01) = C(s - n01, x) C(n01, s - n01_obs - x).
    return math.comb(s - n01, x) * math.comb(n01, s - obs.n01 - x)


def _add_run(obs: ObservedTable, s: int, x: int, seed: int, into: list, base: int) -> None:
    # Adds the (s, x) run seed * C(n10, j) C(m - n10, c) into into[n10 - base]
    # over its window j <= n10 <= m - c: seeded at n10 = j, where C(j, j) = 1,
    # then stepped along n10 by the exact ratio and added in the same pass.
    m = obs.total - s  # n00 = m - n10
    j, c = obs.n11 - x, obs.n10 + obs.n01 - s + x
    stop = m - c
    lo, hi = j - base, stop - base + 1
    t = seed * math.comb(m - j, c)
    into[lo] += t
    # n + 1, m - n - c, n + 1 - j and m - n for n = j, ..., stop - 1
    steps = zip(into[lo + 1:hi], range(j + 1, stop + 1), range(m - c - j, m - c - stop, -1),
                range(1, stop + 1 - j), range(m - j, m - stop, -1))
    into[lo + 1:hi] = [w + (t := t * (a * b) // (d * e)) for w, a, b, d, e in steps]


def _slots(obs: ObservedTable, n01s: range) -> tuple[int, int, int, int]:
    # The first and last of the harmed counts n01s, and the width w and mask of
    # a packed integer's slots: a column is at most C(N, N1) < 2^w.
    if not isinstance(n01s, range) or n01s.step != 1:
        raise ValueError(f"harmed counts must be a range stepping by +1, got {n01s!r}")
    width = math.comb(obs.total, obs.n_treated).bit_length()
    return *((_count(n01s[0], "n01"), n01s[-1]) if n01s else (0, -1)), width, (1 << width) - 1


def _pack(obs: ObservedTable, s: int, x: int, lo: int, hi: int, width: int) -> tuple[int, int]:
    # The one statement of a run's reach: the (s, x) run's seeds at the counts
    # of lo..hi it reaches, max(lo, k)..min(hi, k + n01_obs) with
    # k = s - n01_obs - x, the first in slot 0; returned with that first count.
    k, packed = s - obs.n01 - x, 0
    first = k if k > lo else lo
    for n01 in range(k + obs.n01 if k + obs.n01 < hi else hi, first - 1, -1):
        packed = (packed << width) + _seed(obs, s, x, n01)
    return packed, first


def _grid(obs: ObservedTable, n01s: range,
          n11s: Iterable[int] | None = None) -> Iterator[tuple[int, int, range, list[int]]]:
    """The support rows ``(n01, n11, n10s, numerators)`` of each harmed count
    of the consecutive ``n01s``, ``numerators[i]`` positive and
    :func:`_numerator` at ``(n11, n10s[i])``; no row where that count is
    infeasible. Given ``n11s``, only the diagonals they label at the first
    count, as ``tables._rows`` takes them: at one count, those rows.

    Each (s, x) run is walked once for the whole range, one diagonal s of
    the run box at a time as the rows are read, its seeds packed by
    :func:`_pack` as in :func:`_columns`. A diagonal's rows follow its walk,
    one per count it reaches, in ascending n01: a count's points are the
    windows of the diagonal's runs that reach it, each holding its slot.
    Raises ValueError, on the first read, unless ``n01s`` is a range
    stepping by +1.
    """
    lo, hi, width, mask = _slots(obs, n01s)
    # Each diagonal's runs are k = s - n01_obs - x, kmin..kmax, and run k's
    # window starts k - kmin into the diagonal's. The bounds are conditional
    # expressions, not max and min: this loop is most of verify's walk.
    for n11, n10s, xs in _rows(obs, lo, n11s, last=hi):
        s, packed, n01_obs = n11 + lo, [0] * len(n10s), obs.n01
        kmin, kmax = s - n01_obs - xs[-1], s - n01_obs - xs[0]
        base, top = kmin if kmin > lo else lo, kmax + n01_obs if kmax + n01_obs < hi else hi
        for x in xs:  # each run's seeds shifted from its first count to the base
            seeds, first = _pack(obs, s, x, lo, hi, width)
            _add_run(obs, s, x, seeds << width * (first - base), packed, n10s[0])
        for n01 in range(base, top + 1):  # count n01 reads its runs, n01 - n01_obs <= k <= n01
            a = n01 - n01_obs - kmin if n01 - n01_obs > kmin else 0
            b, shift = (n01 if n01 < kmax else kmax) - kmin + obs.n00 + 1, width * (n01 - base)
            yield n01, s - n01, n10s[a:b], (packed if base == top  # one slot: the diagonal
                                            else [v >> shift & mask for v in packed[a:b]])


def _columns(obs: ObservedTable, n01s: range) -> Iterator[list[int]]:
    """Per harmed count of the consecutive ``n01s``, its column sums:
    element n10 is the sum over n11 of the numerators at (n11, n10), and
    every element is 0 when that harmed count is infeasible.

    Each (s, x) run is walked once for the whole range, at the call, its
    seeds for every harmed count it reaches packed into one integer, one
    slot per count; each count's columns are unpacked as they are read.
    Raises ValueError unless ``n01s`` is a range stepping by +1.
    """
    lo, hi, width, mask = _slots(obs, n01s)
    packed = [0] * (obs.n11 + obs.n00 + 1)  # every window ends by n10 = n11_obs + n00_obs
    # The runs go by descending k = s - n01_obs - x, the least count a run
    # reaches (c = n10_obs - k >= 0), so slot 0 holds n01 = max(lo, k), the
    # first count _pack returns, and a run packs no slot below it: the
    # accumulator moves up a slot as k falls.
    ks, xs = _run_box(obs, lo, hi)
    for k in reversed(ks):
        if lo <= k < ks[-1]:
            packed = [v << width for v in packed]
        for s, x in enumerate(xs, k + obs.n01):  # s = k + n01_obs + x, as xs starts at 0
            _add_run(obs, s, x, _pack(obs, s, x, lo, hi, width)[0], packed, 0)
    return ([v >> width * i & mask for v in packed] for i in range(len(n01s)))


def _row_sums(obs: ObservedTable, n01: int) -> list[tuple[int, int]]:
    """``(n11, sum of the numerators over the row's n10)`` over the support.

    Every sum is positive and comes from the Chu-Vandermonde closed form,
    walked down the rows of ``tables._rows`` as the module docstring gives,
    each run entering from :func:`_seed`. The caller checks the support.
    """
    sums, a, n, r = [], {}, obs.total - n01 + 2, obs.n00  # row n11 has m + 2 = n - n11
    for n11, _, xs in _rows(obs, n01):  # a: row n11's a_x by n11 - x, which names run k
        factor = factor * (n - n11 - r) // (n - n11) if a else math.comb(n - n11 - 1, r)
        a = {n11 - x: a[n11 - x] * n11 // x if x else _seed(obs, n11 + n01, 0, n01) for x in xs}
        sums.append((n11, factor * sum(a.values())))
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
    _check_support(obs, n01)
    best, argmax = 0, []
    for _, n11, n10s, numerators in _grid(obs, range(n01, n01 + 1)):
        for n10, numerator in zip(n10s, numerators):
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
