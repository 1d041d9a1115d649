"""Ground-truth engine: exact enumeration of treatment assignments.

Every closed-form formula in this package can be checked against brute
force. For a given science table, assignments that place the same number
of each unit type into the treatment arm produce identical observed data,
so enumeration runs over type compositions (at most (N1+1)^3 cells)
weighted by multivariate hypergeometric counts instead of over all
C(N, N1) raw assignments. Each composition is a plain tuple (x11, x10,
x01, x00, ways), built into a record only on read; every probability is a
way count over the distribution's one ``denominator``, C(N, N1), and the
moments are integer sums over it (``tau_hat_sums``, ``prediction_gap_sums``,
``lemma1_check``'s treated totals), each divided once by ``_moments``.
One science table's compositions come from one kernel, ``_compose``,
which builds each count's binomials over its x window alone:
``enumerate_assignments`` may run at N in the thousands with a small arm.
``verify`` reads every science table's law of a design (N, N1) off one
pass of ``_design_laws`` instead: each composition of the treated arm
paired with each of the control arm is one composition of their sum, its
way count read from the one binomial table of N the kernel builds. A
law's tally of observed tables gives both moment sums through one helper,
``_sums``, per observed table rather than per composition, since each v
is the observed table's alone. One pass over a
law's compositions, ``_law``, gives its tally and those sums:
``outcomes`` and ``normality_check`` read its tally, the two ``*_sums``
views its sums.
A seeded Monte Carlo stand-in covers populations beyond the enumeration
cap; its weights are draw counts, its denominator the number of draws, and
it is the one sampler here: ``normality_check`` studentizes its tally. Its
generator, numpy's, samples populations of fewer than 10^9 units.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist
from typing import Iterator, NamedTuple, Optional

from .moments import improved_variance, population_tau_variance, tau_hat
from .tables import ObservedTable, ScienceTable, _count, _exact, _n_control

ENUM_CAP_ENV = "CAUSALURN_ENUM_CAP"
DEFAULT_ENUM_CAP = 10**6


class EnumerationCapError(ValueError):
    """The assignment space is too large to enumerate; use monte_carlo."""


def enumeration_cap() -> int:
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}") from None
    return _count(cap, ENUM_CAP_ENV, positive=True)


#: Draws per Monte Carlo chunk, so memory stays bounded at any ``draws``.
_MC_CHUNK = 1 << 13


@dataclass(frozen=True)
class AssignmentRecord:
    """One type composition of the treatment arm and its statistics.

    ``treated_types`` counts, per potential-outcome type (11, 10, 01, 00),
    how many units of that type were assigned to treatment. ``weight`` is
    the number of assignments (or Monte Carlo draws) with this composition,
    out of the ``denominator`` of its distribution. The attributable effect
    is treated helped minus treated harmed; it varies across compositions
    that share an observed table.
    """

    observed: ObservedTable
    treated_types: tuple[int, int, int, int]
    weight: int
    attributable: int


@dataclass(frozen=True)
class AssignmentDistribution:
    """Sampling distribution of the observed data for one science table.

    ``compositions`` holds one ``(x11, x10, x01, x00, weight)`` per type
    composition, ``denominator`` the total of the weights: C(N, N1) for an
    enumerated law, the number of draws for a Monte Carlo one, which also
    names its generator in ``rng`` (None when enumerated).
    """

    science: ScienceTable
    n_treated: int
    compositions: tuple[tuple[int, int, int, int, int], ...]
    denominator: int
    rng: Optional[str] = None

    @property
    def n_control(self) -> int:
        return self.science.total - self.n_treated

    @property
    def records(self) -> tuple[AssignmentRecord, ...]:
        """One record per composition, in the same order; built on read."""
        return tuple([
            AssignmentRecord(self._table(n11, n01), c[:4], w, a)
            for c, (w, n11, n01, a) in zip(self.compositions, self._observed())
        ])

    @property
    def outcomes(self) -> dict:
        """Probability of each observed table, in first-seen order; built on read."""
        return {self._table(*key): Fraction(w, self.denominator)
                for key, w in self._law()[0].items()}

    def _table(self, n11: int, n01: int) -> ObservedTable:
        return ObservedTable(n11, self.n_treated - n11, n01, self.n_control - n01)

    def _observed(self) -> Iterator[tuple[int, int, int, int]]:
        # (weight, n11_obs, n01_obs, A) of each composition.
        s11, s01 = self.science.n11, self.science.n01
        return ((w, x11 + x10, s11 - x11 + s01 - x01, x10 - x01)
                for x11, x10, x01, _, w in self.compositions)

    def _law(self) -> tuple[dict, tuple[int, int], tuple[int, int]]:
        """One pass over ``_observed()``. It gives the summed integer weight of
        each observed table, keyed by its (n11_obs, n01_obs), in first-seen
        order: the law the likelihood states. With it come both views' moment
        sums, ``_sums`` of that tally."""
        tally: dict = {}
        for weight, n11, n01, _ in self._observed():
            tally[n11, n01] = tally.get((n11, n01), 0) + weight
        science = self.science
        return (tally, *_sums(tally, self.n_treated, self.n_control, science.n11 + science.n01))

    def tau_hat_sums(self) -> tuple[int, int]:
        """Sums of w v and w v^2 over the compositions for v = tau_hat N1 N0;
        over ``denominator`` they are v's moments."""
        return self._law()[1]

    def prediction_gap_sums(self) -> tuple[int, int]:
        """The same sums for v = (A - N1 tau_hat) N0."""
        return self._law()[2]

    def tau_hat_moments(self) -> tuple:
        return _moments(self.denominator, self.tau_hat_sums(), self.n_treated * self.n_control)

    def prediction_gap_moments(self) -> tuple:
        """Mean and variance of A - N1 * tau_hat."""
        return _moments(self.denominator, self.prediction_gap_sums(), self.n_control)


def _moments(total: int, sums: tuple[int, int], scale: int) -> tuple:
    # Mean and variance of v / scale from v's sums over a law whose weights sum to total.
    first, second = sums
    return (Fraction(first, total * scale),
            Fraction(total * second - first * first, (total * scale) ** 2))


def _sums(tally: dict, n1: int, n0: int, y0: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Sums of w v and w v^2 over a law's ``tally`` of observed tables, keyed
    by (n11_obs, n01_obs), for v = tau_hat N1 N0 = n11_obs N0 - n01_obs N1 and
    for v = (A - N1 tau_hat) N0 = n01_obs N - y0 N0, where y0 = n11 + n01 of
    the science table counts its units whose control outcome is 1. Both v's
    are the observed table's alone: each composition has
    A - n11_obs = -(x11 + x01) = n01_obs - y0."""
    total, shift = n1 + n0, y0 * n0
    tau1 = tau2 = gap1 = gap2 = 0
    for (n11, n01), w in tally.items():
        v = n11 * n0 - n01 * n1
        wv = w * v
        tau1, tau2 = tau1 + wv, tau2 + wv * v
        v = n01 * total - shift
        wv = w * v
        gap1, gap2 = gap1 + wv, gap2 + wv * v
    return (tau1, tau2), (gap1, gap2)


def _assignment_count(total: int, n_treated: int) -> int:
    """C(N, N1), after checking both arms are nonempty and it is within the cap."""
    _n_control(total, n_treated)
    n_assignments = math.comb(total, n_treated)
    limit = enumeration_cap()
    if n_assignments > limit:
        raise EnumerationCapError(
            f"C({total}, {n_treated}) = {n_assignments} exceeds the cap {limit}; "
            "use monte_carlo instead"
        )
    return n_assignments


def _compose(science: ScienceTable, n1: int) -> tuple:
    """Every type composition of a treatment arm of N1 units, N0 left in
    control, as (x11, x10, x01, x00, ways) in lexicographic order: the one
    enumeration. Each count c_t gets its row of C(c_t, x) over the x the arm
    can take, max(0, c_t - N0)..min(c_t, N1), and no other: N may run to
    thousands with a small arm."""
    n0, counts = science.total - n1, (science.n11, science.n10, science.n01, science.n00)
    c11, c10, c01, c00 = ({x: math.comb(c, x) for x in range(max(0, c - n0), min(c, n1) + 1)}
                          for c in counts)
    n11, n10, n01, n00 = counts
    return tuple([  # a list first: a tuple grown in place fragments the heap
        (x11, x10, x01, rest - x01, ways * c01[x01] * c00[rest - x01])
        for x11 in range(max(0, n11 - n0), min(n11, n1) + 1)
        for x10 in range(max(0, n1 - x11 - n01 - n00), min(n10, n1 - x11) + 1)
        for rest, ways in [(n1 - x11 - x10, c11[x11] * c10[x10])]  # x01 + x00, with x00 at most n00
        for x01 in range(max(0, rest - n00), min(n01, rest) + 1)
    ])


def _design_laws(total: int, n1: int) -> list:
    """Every science table's enumerated law for the design (N, N1) in one pass,
    each as ``_law()`` gives it: its tally and ``_sums`` of it. They come one
    per science table of N units, in lexicographic order of (n11, n10, n01),
    the order ``verify.science_tables_up_to`` gives. Each composition x of the
    N1 treated units into the four types pairs with each composition y of the
    N0 in control: the pair is the composition x of science table x + y,
    reached in prod_t C(x_t + y_t, x_t) ways, each read from the design's
    one binomial table, ``binomials[c][x] = C(c, x)``, and its observed table
    is (n11_obs, n01_obs) = (x11 + x10, y11 + y01)."""
    n0 = total - n1
    binomials = [[math.comb(c, x) for x in range(c + 1)] for c in range(total + 1)]
    # laws[s11][s10][s01]: the tally of science table (s11, s10, s01, N - s11 - s10 - s01)
    laws = [[[{} for _ in range(total - s11 - s10 + 1)] for s10 in range(total - s11 + 1)]
            for s11 in range(total + 1)]
    for x11 in range(n1 + 1):
        for x10 in range(n1 - x11 + 1):
            keys = [(x11 + x10, n01) for n01 in range(n0 + 1)]  # the observed table at y11 + y01
            for x01 in range(n1 - x11 - x10 + 1):
                x00 = n1 - x11 - x10 - x01
                c01 = [binomials[x01 + y][x01] for y in range(n0 + 1)]
                c00 = [binomials[x00 + y][x00] for y in range(n0 + 1)]
                for y11 in range(n0 + 1):
                    plane, w11 = laws[x11 + y11], binomials[x11 + y11][x11]
                    for y10 in range(n0 - y11 + 1):
                        row, ways = plane[x10 + y10], w11 * binomials[x10 + y10][x10]
                        rest = n0 - y11 - y10  # y01 + y00
                        for y01 in range(rest + 1):
                            tally, key = row[x01 + y01], keys[y11 + y01]
                            tally[key] = tally.get(key, 0) + ways * c01[y01] * c00[rest - y01]
    return [(tally, *_sums(tally, n1, n0, s11 + s01))
            for s11, plane in enumerate(laws) for row in plane for s01, tally in enumerate(row)]


def enumerate_assignments(science: ScienceTable, n_treated: int) -> AssignmentDistribution:
    """Exact sampling distribution over all C(N, N1) assignments."""
    n_assignments = _assignment_count(science.total, n_treated)
    compositions = _compose(science, n_treated)
    total_ways = sum(c[4] for c in compositions)
    if total_ways != n_assignments:
        raise AssertionError(f"composition way counts sum to {total_ways}, not {n_assignments}")
    return AssignmentDistribution(science, n_treated, compositions, n_assignments)


def _sampling(draws: int, seed: int) -> None:
    """The one rule for a sampler's options: a positive count of draws and a nonnegative seed."""
    _count(draws, "draws", positive=True)
    _count(seed, "seed")


def monte_carlo(
    science: ScienceTable, n_treated: int, draws: int, seed: int
) -> AssignmentDistribution:
    """Seeded empirical stand-in: frequencies replace exact probabilities.

    The same seed always reproduces the same distribution; the PRNG is
    recorded in the result so runs can be replicated elsewhere. Draws are
    taken and tallied in fixed-size chunks, so memory does not grow with
    ``draws``; compositions come in lexicographic order.
    """
    _n_control(science.total, n_treated)
    _sampling(draws, seed)
    if science.total >= 10**9:  # numpy's sampler takes fewer units; checked before it loads
        raise OverflowError(f"numpy samples fewer than 10^9 units, not {science.total}")
    import numpy as np  # the one numpy user; commands that never sample skip its import
    rng = np.random.default_rng(seed)
    colors = [science.n11, science.n10, science.n01, science.n00]
    # One mixed-radix key per draw, (x11 (n10+1) + x10) (n01+1) + x01: its
    # numeric order is the lexicographic order of the compositions, and x00
    # is fixed by the other three. Keys too large for int64 stay Python ints.
    r10, r01 = science.n10 + 1, science.n01 + 1
    wide = (science.n11 + 1) * r10 * r01 > np.iinfo(np.int64).max
    tally: Counter = Counter()
    for start in range(0, draws, _MC_CHUNK):
        sample = rng.multivariate_hypergeometric(
            colors, n_treated, size=min(_MC_CHUNK, draws - start)
        )
        if wide:
            sample = sample.astype(object)
        keys, counts = np.unique(
            (sample[:, 0] * r10 + sample[:, 1]) * r01 + sample[:, 2],
            return_counts=True,
        )
        tally.update(dict(zip(keys.tolist(), counts.tolist())))
    compositions = []
    for key in sorted(tally):
        head, x01 = divmod(key, r01)
        x11, x10 = divmod(head, r10)
        compositions.append((x11, x10, x01, n_treated - x11 - x10 - x01, tally[key]))
    return AssignmentDistribution(
        science, n_treated, tuple(compositions), draws,
        rng=f"numpy.random.Generator(PCG64(seed={seed})), numpy {np.__version__}",
    )


class Lemma1Report(NamedTuple):
    mean: Fraction
    variance: Fraction
    matches: bool


def lemma1_check(constants, n_treated: int) -> Lemma1Report:
    """Exact moments of a treated-arm total of fixed constants.

    Enumerates every assignment and reports whether the moments equal
    N1 * mean(c) and (N1 N0 / N) * S_c^2, the sampling formulas all the
    variance results reduce to, on integers: the constants over the lcm of
    their denominators, each treated total summed, the formulas cross-multiplied.
    Each constant is held to ``tables._exact``'s rule and named by its index.
    """
    values = [_exact(c, f"constants[{i}]") for i, c in enumerate(constants)]
    total = len(values)
    n_assignments = _assignment_count(total, n_treated)
    scale = math.lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (scale // v.denominator) for v in values]
    totals = [sum(combo) for combo in itertools.combinations(scaled, n_treated)]
    sums = first, second = sum(totals), sum(t * t for t in totals)
    c1, c2 = sum(scaled), sum(c * c for c in scaled)
    # Over D = C(N, N1) and scale: the mean is first / D against N1 c1 / N, and
    # the variance (D second - first^2) / D^2 against N1 N0 (N c2 - c1^2) / (N^2 (N - 1)).
    matches = (first * total == n_treated * c1 * n_assignments
               and (n_assignments * second - first * first) * total * total * (total - 1)
               == n_treated * (total - n_treated) * (total * c2 - c1 * c1) * n_assignments ** 2)
    return Lemma1Report(*_moments(n_assignments, sums, scale), matches)


@dataclass(frozen=True)
class NormalityReport:
    """Distance of the studentized estimator from the standard normal.

    Report-only: the underlying claim is asymptotic, so no hard threshold
    is attached. ``excluded`` counts draws whose plug-in variance was zero
    and could not be studentized; when every draw is excluded the report
    is skipped, like a degenerate science table.
    """

    skipped: bool
    ks_statistic: Optional[float] = None
    excluded: int = 0
    reason: str = ""
    rng: Optional[str] = None


def normality_check(
    science: ScienceTable, n_treated: int, draws: int, seed: int
) -> NormalityReport:
    """Kolmogorov-Smirnov distance of (tau_hat - tau)/sqrt(V_hat) from N(0,1).

    The draws come from :func:`monte_carlo`; each distinct observed table
    is studentized once and counts as many times as it was drawn. The
    sampler's options are checked first, even for a table it never samples.
    """
    _sampling(draws, seed)
    if draws < 10**4:
        raise ValueError("need at least 10^4 draws for a stable distance")
    if population_tau_variance(science, n_treated) == 0:
        return NormalityReport(
            skipped=True, reason="degenerate science table: estimator variance is 0"
        )
    dist = monte_carlo(science, n_treated, draws, seed)
    tau = float(science.tau)
    studentized = []  # (z, number of draws)
    for key, weight in dist._law()[0].items():
        obs = dist._table(*key)
        variance = improved_variance(obs)
        if variance > 0:
            z = (float(tau_hat(obs)) - tau) / math.sqrt(variance)
            studentized.append((z, weight))
    usable = sum(weight for _, weight in studentized)
    if not usable:
        return NormalityReport(
            skipped=True, excluded=draws, rng=dist.rng,
            reason="no draw has a positive plug-in variance",
        )
    # The empirical CDF steps from below / usable to above / usable at z.
    cdf = NormalDist().cdf
    distance = below = 0
    for z, weight in sorted(studentized):
        above = below + weight
        distance = max(distance, above / usable - cdf(z), cdf(z) - below / usable)
        below = above
    return NormalityReport(
        skipped=False, ks_statistic=distance, excluded=draws - usable, rng=dist.rng
    )
