"""Oracle-versus-formula identity suite behind ``causalurn verify``.

Sweeps every science table up to a small population size and checks, by
exhaustive enumeration in exact arithmetic, the closed-form moments, the
moment cell estimates and ``likelihood._grid``: its points are the
support, its box, steps, slot width, packing and each run's reach
(``likelihood._pack``) the sweep's, its ``tables._rows`` and ``_seed``
those the closed-form row sums read.
Designs go one (N, N1) at a time, every one checked against the
enumeration cap first. Each observed table of a design is walked once,
over every harmed count 0..N, its runs' seeds packed one slot per count.
One pass of the oracle's design kernel, ``oracle._design_laws``, over the
pairs of the two arms' compositions reads every science table's law of a
design off the binomial table the kernel builds: its tally of observed
tables and both moment sums, taken per observed table through
``oracle._sums`` as ``_law()`` takes them. This module takes no binomial
itself: C(N, N1) is the cap check's ``oracle._assignment_count``. A
science table's integer way count of each observed table it reaches, that
tally keyed by (n11_obs, n01_obs), must equal its point's walked
numerators by the same key; only a mismatch is checked, and named, table
by table. The moments are checked on integers: the oracle's sums over
C(N, N1) meet ``moments._population`` and ``_cells`` cross-multiplied; a
failure line alone builds rationals (``oracle._moments``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

from . import likelihood, moments, oracle
from .tables import ObservedTable, ScienceTable, _integer

_MAX_REPORTED_FAILURES = 5


@dataclass
class CheckResult:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, detail: Callable[[], str]) -> None:
        """Count one identity; ``detail`` describes it and runs on failure only."""
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < _MAX_REPORTED_FAILURES:
                self.failures.append(detail())

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        line = f"{status}  {self.name}: {self.passed} identities checked"
        if self.failed:
            line += f", {self.failed} failed"
        return line


@dataclass
class VerificationReport:
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def lines(self) -> list[str]:
        out = [result.line() for result in self.results]
        for result in self.results:
            for failure in result.failures:
                out.append(f"  failure [{result.name}]: {failure}")
        return out


def science_tables_up_to(max_n: int) -> Iterator[ScienceTable]:
    """Every science table with population size from 2 to ``max_n``, none when
    ``max_n`` is below 2; a TypeError naming ``max_n``, at the call, unless it
    is an ``_integer``."""
    return (ScienceTable(n11, n10, n01, total - n11 - n10 - n01)
            for total in range(2, _integer(max_n, "max_n") + 1) for n11 in range(total + 1)
            for n10 in range(total - n11 + 1) for n01 in range(total - n11 - n10 + 1))


def _walk(tables: list, total: int) -> list:
    # Per harmed count n01 = 0..N, likelihood._grid's numerators as
    # {(n11, n10): {(n11_obs, n01_obs): w on its grid}}, and the moment cells
    # times N1 N0 by the same (n11_obs, n01_obs): one walk per observed table.
    walks = [({}, {}) for _ in range(total + 1)]
    for obs in tables:
        key = obs.n11, obs.n01
        for n01, n11, n10s, ws in likelihood._grid(obs, range(total + 1)):
            columns = walks[n01][0]
            for n10, w in zip(n10s, ws):
                columns.setdefault((n11, n10), {})[key] = w
        for n01, (_, scaled) in enumerate(walks):
            scaled[key] = moments._cells(obs, n01)
    return walks


def run_verification(max_n: int = 8, seed: int = 0, mc_draws: int = 20_000) -> VerificationReport:
    """Run the full identity suite over all designs with N <= ``max_n``.

    ``max_n`` must be an integer of at least 2, as no design has fewer than 2
    units; it and the sampling options are checked before any design is
    counted or walked, a TypeError or ValueError naming the option otherwise.
    """
    if _integer(max_n, "max_n") < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n}: no design has fewer than 2 units")
    oracle._sampling(mc_draws, seed)

    estimator = CheckResult("rate-difference mean and variance")
    cells = CheckResult("cell estimators are unbiased")
    prediction = CheckResult("attributable prediction moments")
    lik = CheckResult("likelihood equals assignment probability")
    support = CheckResult("support matches positive probability")
    lemma = CheckResult("treated-sum moments (constants)")
    mc = CheckResult("monte carlo agrees with exact moments")

    # C(N, N1) of every design, each within the cap before any is walked
    denominators = {(total, n_treated): oracle._assignment_count(total, n_treated)
                    for total in range(2, max_n + 1) for n_treated in range(1, total)}

    for total, group in itertools.groupby(science_tables_up_to(max_n), lambda s: s.total):
        sciences = list(group)
        for n_treated in range(1, total):
            n_control = total - n_treated
            tables = [ObservedTable(n11, n_treated - n11, n01, n_control - n01)
                      for n11 in range(n_treated + 1) for n01 in range(n_control + 1)]
            scale, denominator = n_treated * n_control, denominators[total, n_treated]
            walks = _walk(tables, total)
            laws = oracle._design_laws(total, n_treated)
            for science, (ways, tau_sums, gap_sums) in zip(sciences, laws, strict=True):

                def label() -> str:
                    return f"science={science} N1={n_treated}"

                # Over D = C(N, N1), v / unit has mean first / (D unit) and variance
                # (D second - first^2) / (D unit)^2, each cross-multiplied with its pair.
                tau_variance, mse = moments._population(science, n_treated)
                for result, name, sums, unit, mean, variance in (
                    (estimator, "tau_hat", tau_sums, scale,
                     (science.n10 - science.n01, total), tau_variance),
                    (prediction, "A - N1 tau_hat", gap_sums, n_control,
                     (0, 1), mse),
                ):
                    (first, second), whole = sums, denominator * unit
                    spread = (denominator * second - first * first) * variance[1]
                    result.record(first * mean[1] == mean[0] * whole, lambda: (
                        f"{label()}: E({name})={oracle._moments(denominator, sums, unit)[0]}"))
                    result.record(spread == variance[0] * whole * whole, lambda: (
                        f"{label()}: var({name})={oracle._moments(denominator, sums, unit)[1]}"))

                columns, scaled = walks[science.n01]
                column = columns.get((science.n11, science.n10), {})
                if column == ways:  # the likelihood's table law is the oracle's
                    support.passed += len(tables)
                    lik.passed += len(ways)
                else:  # each table's identities, one at a time, failures named
                    for obs in tables:
                        key = obs.n11, obs.n01
                        walked, weight = column.get(key), ways.get(key)
                        support.record((walked is None) == (not weight), lambda: (
                            f"{label()} obs={obs}: reachable table outside the support region"
                            if weight else
                            f"{label()} obs={obs}: unreachable table inside the support"
                        ))
                        if weight:
                            lik.record(
                                walked == weight,
                                lambda: f"{label()} obs={obs}: likelihood != probability "
                                f"{Fraction(weight, denominator)}",
                            )
                s11 = s00 = s10 = 0  # way counts times scaled moment cells
                for key, weight in ways.items():
                    c11, c00, c10 = scaled[key]
                    s11, s00, s10 = s11 + weight * c11, s00 + weight * c00, s10 + weight * c10
                sums = s11, s00, s10
                whole = denominator * scale
                cells.record(
                    sums == (whole * science.n11, whole * science.n00, whole * science.n10),
                    lambda: f"{label()}: cell means {tuple(Fraction(s, whole) for s in sums)}",
                )

    for constants in _constant_families(max_n):
        for n_treated in range(1, len(constants)):
            report = oracle.lemma1_check(constants, n_treated)
            lemma.record(
                report.matches,
                lambda: f"constants={constants} N1={n_treated}: "
                f"mean={report.mean} var={report.variance}",
            )

    for science, n_treated in (
        (ScienceTable(13, 10, 0, 30), 32),
        (ScienceTable(5, 5, 5, 5), 10),
    ):
        empirical = oracle.monte_carlo(science, n_treated, mc_draws, seed)
        mean, _ = empirical.tau_hat_moments()
        spread = math.sqrt(moments.population_tau_variance(science, n_treated) / mc_draws)
        mc.record(
            abs(float(mean - science.tau)) <= 4 * spread,
            lambda: f"MC science={science} N1={n_treated}: mean {float(mean):.5f} "
            f"vs tau {float(science.tau):.5f}",
        )

    return VerificationReport((estimator, cells, prediction, lik, support, lemma, mc))


def _constant_families(max_n: int) -> Iterator[tuple]:
    yield (1, 0, 0)
    yield (1, 1, 0, 0)
    yield (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), 1)
    for total in range(2, min(max_n, 6) + 1):
        yield tuple(range(total))
    yield (2, 2, 2, 2)
