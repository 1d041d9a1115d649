"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Tolerances are fixed here, not calibrated later.
"""

import time
from fractions import Fraction

import pytest

from causalurn import (
    ObservedTable,
    ScienceTable,
    a_posterior,
    confidence_interval,
    enumerate_assignments,
    hl_estimate,
    hpd_window,
    improved_variance,
    interval_A,
    lemma1_check,
    likelihood_exact,
    monotone_support,
    loglik_general,
    loglik_monotone,
    neyman_predict,
    neyman_variance,
    normality_check,
    population_attributable_mse,
    population_tau_variance,
    pvalue_curve,
    sensitivity_variance,
    tau_hat,
    tau_posterior,
)
from causalurn.cli import main
from causalurn.verify import science_tables_up_to

PIT = ObservedTable(18, 14, 5, 16)
GRID = Fraction(1, 53)


def report(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


def snap_to_grid(value: float) -> Fraction:
    return Fraction(round(value * 53), 53)


@pytest.fixture(scope="module")
def small_designs():
    """Every (science table, arm size) design with N <= 8, enumerated once.

    Returns (designs, seconds spent enumerating) so the sweep criterion can
    charge the enumeration against its runtime budget.
    """
    start = time.perf_counter()
    designs = []
    for science in science_tables_up_to(8):
        for n_treated in range(1, science.total):
            designs.append(
                (science, n_treated, enumerate_assignments(science, n_treated))
            )
    return designs, time.perf_counter() - start


def test_criterion_1_moment_table():
    start = time.perf_counter()
    t = tau_hat(PIT)
    improved = confidence_interval(t, improved_variance(PIT), 0.95)
    neyman = confidence_interval(t, neyman_variance(PIT), 0.95, method="neyman")
    sens2 = confidence_interval(
        t, sensitivity_variance(PIT, 2), 0.95, method="sensitivity"
    )
    sens5 = confidence_interval(
        t, sensitivity_variance(PIT, 5), 0.95, method="sensitivity"
    )
    elapsed = time.perf_counter() - start
    checks = [
        abs(improved.lower - 0.106) <= 2e-3,
        abs(improved.upper - 0.543) <= 2e-3,
        abs(improved.length - 0.437) <= 4e-3,
        abs(neyman.lower - 0.072) <= 2e-3,
        abs(neyman.upper - 0.577) <= 2e-3,
        abs(sens2.lower - 0.119) <= 2e-3,
        abs(sens2.upper - 0.530) <= 2e-3,
        abs(sens5.lower - 0.141) <= 2e-3,
        abs(sens5.upper - 0.508) <= 2e-3,
        elapsed < 1.0,
    ]
    report(
        "criterion 1: moment intervals match the reference values",
        all(checks),
        f"{elapsed:.3f}s",
    )


def test_criterion_2_bayes_table():
    start = time.perf_counter()
    reference = {
        0: (0.075, 0.509),
        2: (0.075, 0.490),
        5: (0.094, 0.472),
    }
    ok = True
    for n01, (plo, phi) in reference.items():
        dist = tau_posterior(PIT, n01)
        # The reported Bayes point: the posterior median, the summary that
        # equals 16/53 for every row of the sweep.
        point = dist.median()
        ok &= point == Fraction(16, 53)
        ok &= abs(float(point) - 0.301) <= 1e-3
        lo, hi, _ = hpd_window(dist, 0.95)
        ok &= abs(lo - snap_to_grid(plo)) <= GRID
        ok &= abs(hi - snap_to_grid(phi)) <= GRID
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(
        "criterion 2: Bayes point 16/53 and intervals within one grid step",
        bool(ok),
        f"{elapsed:.3f}s",
    )


def test_criterion_3_attributable():
    hl = hl_estimate(pvalue_curve(PIT))
    inversion, retained = interval_A(pvalue_curve(PIT), 0.05)
    posterior = a_posterior(PIT, 0)
    prediction = neyman_predict(PIT)
    compat = neyman_predict(PIT, compat_paper_mse=True)
    checks = [
        hl == (9, 10, 11),
        (inversion.lower, inversion.upper) == (2.0, 16.0),
        retained == tuple(range(2, 17)),
        posterior.mode() == 10,
        abs(prediction.point - 10.38) <= 1e-2,
        abs(prediction.lower - 2.81) <= 1e-2,
        abs(prediction.upper - 17.96) <= 1e-2,
        abs(compat.lower - 1.56) <= 1e-2,
        abs(compat.upper - 19.20) <= 1e-2,
    ]
    report("criterion 3: attributable-effect results", all(checks))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The reference 95% interval [1, 16] for A is not reproducible by any "
        "deterministic 95% highest-density construction: the window [2, 16] "
        "already holds 0.9667 of the exact posterior mass and is strictly "
        "smaller. Every deterministic reading lands within one grid step; "
        "the exact minimal-mass window is [2, 16]. See notes."
    ),
)
def test_criterion_3_a_interval_reference_value():
    lo, hi, _ = hpd_window(a_posterior(PIT, 0), 0.95)
    ok = (lo, hi) == (1, 16)
    report("criterion 3 (reference A interval [1, 16] exactly)", ok,
           f"computed [{lo}, {hi}]")


def test_criterion_4_likelihood_equals_probability(small_designs):
    designs, build_seconds = small_designs
    start = time.perf_counter()
    checked = 0
    ok = True
    for science, n_treated, dist in designs:
        point = science.parameter_point
        for obs, probability in dist.outcomes.items():
            ok &= likelihood_exact(obs, point) == probability
            checked += 1
    elapsed = time.perf_counter() - start + build_seconds
    ok &= elapsed < 300.0
    report(
        "criterion 4: likelihood equals exact assignment probability (N <= 8)",
        bool(ok),
        f"{checked} tables, {elapsed:.1f}s",
    )


def test_criterion_5_moment_identities(small_designs):
    designs, _ = small_designs
    ok = True
    for science, n_treated, dist in designs:
        mean, variance = dist.tau_hat_moments()
        ok &= mean == science.tau
        ok &= variance == population_tau_variance(science, n_treated)
        gap_mean, gap_variance = dist.prediction_gap_moments()
        ok &= gap_mean == 0
        ok &= gap_variance == population_attributable_mse(science, n_treated)
    for constants, n_treated in (((1, 0, 0), 1), ((1, 1, 0, 0), 2)):
        ok &= lemma1_check(constants, n_treated).matches
    report("criterion 5: exact moment identities over all N <= 8 designs", bool(ok))


def test_criterion_5_named_hand_case_variance_one_sixth():
    dist = enumerate_assignments(ScienceTable(1, 2, 0, 1), 2)
    _, variance = dist.tau_hat_moments()
    report("criterion 5 (hand case): var(tau-hat) = 1/6", variance == Fraction(1, 6))


def test_criterion_5_named_hand_case_prediction_variance_one():
    dist = enumerate_assignments(ScienceTable(1, 2, 0, 1), 2)
    _, variance = dist.prediction_gap_moments()
    report("criterion 5 (hand case): var(A - N1 tau-hat) = 1", variance == 1)


def test_criterion_6_structural(capsys):
    import numpy as np

    ok = True
    # Monotone support cardinality over a randomized family.
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n11, n10, n01, n00 = (int(v) for v in rng.integers(0, 9, size=4))
        if n11 + n10 == 0 or n01 + n00 == 0:
            continue
        obs = ObservedTable(n11, n10, n01, n00)
        ok &= len(monotone_support(obs)) == (n11 + 1) * (n00 + 1)
    # Reduction to the no-harm formula is bit-compatible.
    for point in monotone_support(PIT):
        ok &= abs(loglik_general(PIT, point) - loglik_monotone(PIT, point)) <= 1e-12
    # Every emitted posterior curve is normalized.
    for target in ("tau", "A"):
        for n01 in (0, 2, 5):
            main(["posterior", "18", "14", "5", "16",
                  "--target", target, "--n01", str(n01)])
            out = capsys.readouterr().out
            total = sum(float(line.split(",")[1])
                        for line in out.strip().splitlines()[2:])
            ok &= abs(total - 1.0) <= 1e-9
    report("criterion 6: structural properties", bool(ok))


def test_criterion_7_normality_distance_decreases():
    # Report-only asymptotics with a recorded baseline: seed 7, 20000 draws,
    # no-harm balanced family gives 0.076 at N=40 and 0.028 at N=400.
    small = normality_check(ScienceTable(10, 10, 0, 20), 20, draws=20_000, seed=7)
    large = normality_check(ScienceTable(100, 100, 0, 200), 200, draws=20_000, seed=7)
    ok = (
        large.ks_statistic < small.ks_statistic
        and small.ks_statistic < 0.12
        and large.ks_statistic < 0.05
    )
    report(
        "criterion 7: studentized statistic approaches normality",
        ok,
        f"KS {small.ks_statistic:.4f} (N=40) -> {large.ks_statistic:.4f} (N=400)",
    )
