"""Oracle-versus-formula identity suite behind ``causalurn verify``.

Sweeps every science table up to a small population size and checks, by
exhaustive enumeration in exact arithmetic, that the closed-form moments,
the likelihood, and the feasibility regions agree with brute force. The
oracle's integer way counts and the likelihood's integer numerators share
the denominator C(N, N1), so they are compared as integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

from . import likelihood, moments, oracle
from .tables import ObservedTable, ScienceTable, in_general_support

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
    max_n: int
    seed: int
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
    """Every science table with population size from 2 to ``max_n``."""
    for total in range(2, max_n + 1):
        for n11 in range(total + 1):
            for n10 in range(total - n11 + 1):
                for n01 in range(total - n11 - n10 + 1):
                    yield ScienceTable(n11, n10, n01, total - n11 - n10 - n01)


def _designs(max_n: int) -> Iterator[tuple[ScienceTable, int]]:
    for science in science_tables_up_to(max_n):
        for n_treated in range(1, science.total):
            yield science, n_treated


def run_verification(
    max_n: int = 8, seed: int = 0, mc_draws: int = 20_000
) -> VerificationReport:
    """Run the full identity suite over all designs with N <= ``max_n``."""

    estimator = CheckResult("rate-difference mean and variance")
    cells = CheckResult("cell estimators are unbiased")
    prediction = CheckResult("attributable prediction moments")
    lik = CheckResult("likelihood equals assignment probability")
    support = CheckResult("support matches positive probability")
    lemma = CheckResult("treated-sum moments (constants)")
    mc = CheckResult("monte carlo agrees with exact moments")

    observed: dict = {}  # every observed table of an (N, N1), built once
    for science, n_treated in _designs(max_n):
        dist = oracle.enumerate_assignments(science, n_treated)

        def label() -> str:
            return f"science={science} N1={n_treated}"

        mean, variance = dist.tau_hat_moments()
        estimator.record(mean == science.tau, lambda: f"{label()}: E(tau_hat)={mean}")
        estimator.record(
            variance == moments.population_tau_variance(science, n_treated),
            lambda: f"{label()}: var(tau_hat)={variance}",
        )

        n = science.total
        n_control = n - n_treated
        mean_n01 = dist.expectation(lambda r: r.observed.n01)
        mean_n10 = dist.expectation(lambda r: r.observed.n10)
        est_n11 = n * mean_n01 / n_control - science.n01
        est_n00 = n * mean_n10 / n_treated - science.n01
        est_n10 = n + science.n01 - n * mean_n01 / n_control - n * mean_n10 / n_treated
        cells.record(
            (est_n11, est_n00, est_n10)
            == (science.n11, science.n00, science.n10),
            lambda: f"{label()}: cell means {(est_n11, est_n00, est_n10)}",
        )

        gap_mean, gap_var = dist.prediction_gap_moments()
        prediction.record(
            gap_mean == 0, lambda: f"{label()}: E(A - N1 tau_hat)={gap_mean}"
        )
        prediction.record(
            gap_var == moments.population_attributable_mse(science, n_treated),
            lambda: f"{label()}: var(A - N1 tau_hat)={gap_var}",
        )

        point = science.parameter_point
        p11, p10, p01 = point.n11, point.n10, point.n01
        ways = oracle._outcome_weights(dist.records)
        for obs, weight in ways.items():
            lik.record(
                likelihood._numerator(obs, p11, p10, p01) == weight,
                lambda: f"{label()} obs={obs}: likelihood != probability "
                f"{Fraction(weight, dist.denominator)}",
            )
            support.record(
                in_general_support(obs, point),
                lambda: f"{label()} obs={obs}: "
                "reachable table outside the support region",
            )
        if (n, n_treated) not in observed:
            observed[n, n_treated] = tuple(_all_observed(n, n_treated))
        for obs in observed[n, n_treated]:
            if obs not in ways:
                support.record(
                    not in_general_support(obs, point)
                    and likelihood._numerator(obs, p11, p10, p01) == 0,
                    lambda: f"{label()} obs={obs}: "
                    "unreachable table inside the support",
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

    return VerificationReport(
        max_n=max_n,
        seed=seed,
        results=(estimator, cells, prediction, lik, support, lemma, mc),
    )


def _all_observed(total: int, n_treated: int) -> Iterator[ObservedTable]:
    n_control = total - n_treated
    for n11 in range(n_treated + 1):
        for n01 in range(n_control + 1):
            yield ObservedTable(n11, n_treated - n11, n01, n_control - n01)


def _constant_families(max_n: int) -> Iterator[tuple]:
    yield (1, 0, 0)
    yield (1, 1, 0, 0)
    yield (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), 1)
    for total in range(2, min(max_n, 6) + 1):
        yield tuple(range(total))
    yield (2, 2, 2, 2)
