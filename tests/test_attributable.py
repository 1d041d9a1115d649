"""Attributable-effect inference: exact tests, prediction, p-value curve."""

import inspect
import math
from fractions import Fraction

import pytest

from causalurn import (
    ObservedTable,
    ScienceTable,
    a_posterior,
    enumerate_assignments,
    hl_estimate,
    interval_A,
    neyman_predict,
    pvalue_curve,
    pvalue_exact,
    standardized_pvalues,
)
from causalurn import attributable
from causalurn.attributable import _pvalue_numerator


class TestPvalue:
    def test_degenerate_law(self):
        obs = ObservedTable(1, 1, 0, 2)
        assert float(pvalue_exact(obs, 0)) == 1.0

    def test_observed_outside_support_gives_zero(self, pit):
        # With s = 53 every unit responds under control, so observing only
        # 5 control successes is impossible.
        assert pvalue_exact(pit, 53) == 0

    def test_modal_observation_by_hand(self):
        # N = 4, N0 = 2, s = 2: the control successes follow the law on
        # {0, 1, 2} with masses {1/6, 2/3, 1/6}. Observing the mode retains
        # all the mass; observing either end retains the two tails.
        assert pvalue_exact(ObservedTable(1, 1, 1, 1), 2) == 1
        assert pvalue_exact(ObservedTable(2, 0, 0, 2), 2) == Fraction(1, 3)
        assert pvalue_exact(ObservedTable(0, 2, 2, 0), 2) == Fraction(1, 3)

    def test_s_outside_population_raises(self, pit):
        with pytest.raises(ValueError):
            pvalue_exact(pit, -1)
        with pytest.raises(ValueError):
            pvalue_exact(pit, 54)

    @pytest.mark.parametrize("s", [2.5, 7.5, 7.0, "7"])
    def test_non_integer_s_raises(self, pit, s):
        # No law has a fractional number of responders: an error, not p = 0.
        with pytest.raises(TypeError):
            pvalue_exact(pit, s)

    def test_reads_the_walked_curve(self, pit, monkeypatch):
        # One kernel: the per-s row rebuild is the tests' reference only.
        def forbidden(*args):
            raise AssertionError("pvalue_exact rebuilt a row")

        monkeypatch.setattr(attributable, "_pvalue_numerator", forbidden)
        curve = pvalue_curve(pit)
        by_s = {pit.n11 + pit.n01 - a: num for a, num in zip(curve.values, curve.numerators)}
        for s in range(pit.total + 1):
            assert pvalue_exact(pit, s) == Fraction(by_s.get(s, 0), curve.denominator)

    def test_worked_example_plateau(self, pit):
        # p(s) = 1 exactly where the observed count is modal: s in 12..14.
        assert [s for s in range(54) if pvalue_exact(pit, s) == 1] == [12, 13, 14]


class TestHodgesLehmann:
    def test_worked_example(self, pit):
        assert hl_estimate(pvalue_curve(pit)) == (9, 10, 11)

    def test_empty_table_estimate(self):
        # No responder observed anywhere; with the control arm larger than
        # the treated arm the p-value is uniquely maximized at s = 0.
        assert hl_estimate(pvalue_curve(ObservedTable(0, 1, 0, 2))) == (0,)

    def test_ladder_x10_pinned(self):
        # The worked example scaled by 10 (N = 530); values recorded from
        # the per-s Fraction implementation this kernel replaced.
        curve = pvalue_curve(ObservedTable(180, 140, 50, 160))
        assert hl_estimate(curve) == (103, 104)
        for alpha, bounds in ((0.05, (79.0, 126.0)), (0.01, (70.0, 133.0))):
            estimate, retained = interval_A(curve, alpha)
            assert (estimate.lower, estimate.upper) == bounds
            assert estimate.point == 103.5
            assert retained == tuple(range(int(bounds[0]), int(bounds[1]) + 1))

    def test_matches_direct_maximization(self):
        for obs in (ObservedTable(2, 1, 1, 2), ObservedTable(3, 2, 1, 4)):
            best = max(_pvalue_numerator(obs, s) for s in range(obs.total + 1))
            expected = tuple(
                sorted(
                    obs.n11 + obs.n01 - s
                    for s in range(obs.total + 1)
                    if _pvalue_numerator(obs, s) == best
                )
            )
            assert hl_estimate(pvalue_curve(obs)) == expected


class TestIntervalA:
    def test_worked_example(self, pit):
        estimate, retained = interval_A(pvalue_curve(pit), 0.05)
        assert (estimate.lower, estimate.upper) == (2.0, 16.0)
        assert estimate.point == 10.0
        assert retained == tuple(range(2, 17))

    def test_inversion_boundary_both_directions(self, pit):
        # p(s) > .05 exactly for s in 7..21, i.e. A in 2..16.
        for s in range(54):
            inside = 7 <= s <= 21
            assert (pvalue_exact(pit, s) > Fraction(5, 100)) == inside

    def test_inversion_consistency(self):
        obs = ObservedTable(3, 2, 1, 4)
        alpha = 0.11
        _, retained = interval_A(pvalue_curve(obs), alpha)
        retained_s = {obs.n11 + obs.n01 - a for a in retained}
        whole = math.comb(obs.total, obs.n_control)
        for s in range(obs.total + 1):
            assert (Fraction(_pvalue_numerator(obs, s), whole) > alpha) == (s in retained_s)

    def test_alpha_is_compared_exactly(self):
        # p(s = 1) is exactly 1/4 and only p > alpha keeps s; p(s = 0) = 1.
        assert pvalue_exact(ObservedTable(1, 0, 0, 3), 1) == Fraction(1, 4)
        assert interval_A(pvalue_curve(ObservedTable(1, 0, 0, 3)), 0.25)[1] == (1,)

    def test_small_alpha_widens(self, pit):
        curve = pvalue_curve(pit)
        _, tight = interval_A(curve, 0.2)
        _, wide = interval_A(curve, 1e-9)
        assert set(tight) <= set(wide)
        assert all(pvalue_exact(pit, pit.n11 + pit.n01 - a) > 0 for a in wide)

    @pytest.mark.parametrize("alpha", [1e-17, 2.0 ** -54, Fraction(1, 10**20)])
    def test_alpha_whose_level_rounds_to_one_raises_naming_alpha(self, pit, alpha):
        with pytest.raises(ValueError) as raised:
            interval_A(pvalue_curve(pit), alpha)
        assert str(raised.value) == (
            f"alpha {alpha} is too close to 0 for an interval level of 1 - alpha")

    @pytest.mark.parametrize("alpha", [2.0 ** -53, 1e-16])
    def test_smallest_alpha_with_a_level_below_one(self, pit, alpha):
        estimate, retained = interval_A(pvalue_curve(pit), alpha)
        assert estimate.level == 1.0 - alpha < 1.0
        assert retained == tuple(range(-pit.n10, pit.n11 + 1))


class TestNeymanPrediction:
    def test_worked_example_point(self, pit):
        assert neyman_predict(pit).point == pytest.approx(10.38, abs=1e-2)

    def test_default_interval(self, pit):
        estimate = neyman_predict(pit)
        assert estimate.lower == pytest.approx(2.81, abs=1e-2)
        assert estimate.upper == pytest.approx(17.96, abs=1e-2)

    def test_compat_interval(self, pit):
        estimate = neyman_predict(pit, compat_paper_mse=True)
        assert estimate.lower == pytest.approx(1.56, abs=1e-2)
        assert estimate.upper == pytest.approx(19.20, abs=1e-2)

    def test_hand_case_prediction_moments(self):
        # Over the six assignments of (1,2,0,1) with two treated:
        # E(A - N1 tau_hat) = 0 and var = 4 * S0^2 = 1.
        dist = enumerate_assignments(ScienceTable(1, 2, 0, 1), 2)
        mean, variance = dist.prediction_gap_moments()
        assert mean == 0
        assert variance == 1

    def test_variance_free_of_association(self):
        # Same margins, different harmed counts: identical prediction MSE.
        for n_treated in (2, 3):
            a = enumerate_assignments(ScienceTable(2, 1, 1, 2), n_treated)
            b = enumerate_assignments(ScienceTable(1, 2, 2, 1), n_treated)
            assert a.prediction_gap_moments()[1] == b.prediction_gap_moments()[1]


class TestStandardizedPvalues:
    def test_masses_sum_to_one(self, pit):
        curve = standardized_pvalues(pvalue_curve(pit))
        assert sum(curve.mass) == 1

    def test_worked_example_peak(self, pit):
        curve = standardized_pvalues(pvalue_curve(pit))
        best = max(curve.mass)
        assert [a for a, m in zip(curve.support, curve.mass) if m == best] == [9, 10, 11]

    def test_support_matches_a_posterior(self, pit):
        curve = standardized_pvalues(pvalue_curve(pit))
        posterior = a_posterior(pit, 0)
        assert curve.support == posterior.support


def test_inference_never_takes_a_harm_parameter():
    # The attributable-effect procedures are identical with or without the
    # no-harm assumption; by construction no function accepts a harmed count.
    for fn in (pvalue_exact, pvalue_curve, hl_estimate, interval_A, neyman_predict,
               standardized_pvalues):
        assert "n01" not in inspect.signature(fn).parameters
