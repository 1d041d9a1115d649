"""Moment estimators, variance formulas, bounds, and the sensitivity sweep."""

import re
from fractions import Fraction

import pytest

from causalurn import (
    InfeasibleError,
    ObservedTable,
    ScienceTable,
    classic_neyman_variance,
    confidence_interval,
    improved_variance,
    moment_cells,
    n01_bounds,
    neyman_variance,
    population_attributable_mse,
    population_tau_variance,
    sensitivity_sweep,
    sensitivity_variance,
    tau_hat,
)
from causalurn.moments import normal_quantile
from causalurn.verify import science_tables_up_to


class TestTauHat:
    def test_worked_example(self, pit):
        assert tau_hat(pit) == Fraction(18, 32) - Fraction(5, 21)
        assert float(tau_hat(pit)) == pytest.approx(0.324, abs=5e-4)

    def test_all_treated_respond_none_control(self):
        assert tau_hat(ObservedTable(5, 0, 0, 7)) == 1

    def test_symmetric_table(self):
        assert tau_hat(ObservedTable(1, 1, 1, 1)) == 0


class TestMomentCells:
    def test_worked_example(self, pit):
        cells = moment_cells(pit, 0)
        assert float(cells.n11) == pytest.approx(12.62, abs=5e-3)
        assert float(cells.n00) == pytest.approx(23.19, abs=5e-3)
        assert float(cells.n10) == pytest.approx(17.19, abs=5e-3)

    def test_cells_sum_to_population_without_harm(self):
        for obs in (ObservedTable(3, 1, 2, 4), ObservedTable(1, 1, 1, 1)):
            cells = moment_cells(obs, 0)
            assert sum(cells) == obs.total

    def test_boundary_table(self):
        cells = moment_cells(ObservedTable(0, 5, 0, 2), 0)
        assert cells.n11 == 0
        assert cells.n10 == 0

    def test_negative_harmed_count_raises(self, pit):
        for fn in (moment_cells, sensitivity_variance):
            with pytest.raises(ValueError, match="n01 must be nonnegative, got -1$"):
                fn(pit, -1)

    @pytest.mark.parametrize("n01", [1.5, 2.0, Fraction(1, 2), "1"])
    def test_non_integer_harmed_count_raises(self, pit, n01):
        # Checked as every likelihood and posterior entry point checks it,
        # not turned into float cells or a TypeError from inside Fraction.
        message = f"n01 must be an integer, got {n01!r}"
        for fn in (moment_cells, sensitivity_variance):
            with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                fn(pit, n01)
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            sensitivity_sweep(pit, [0, n01])

    def test_estimates_are_unconstrained(self):
        # Out-of-support values are returned as-is; that deficiency is the
        # point of comparison with the likelihood methods.
        cells = moment_cells(ObservedTable(0, 2, 2, 1), 0)
        assert cells.n10 < 0


class TestVariances:
    def test_improved_value(self, pit):
        assert float(improved_variance(pit)) == pytest.approx(0.012428, abs=1e-6)

    def test_improved_interval(self, pit):
        ci = confidence_interval(tau_hat(pit), improved_variance(pit), 0.95)
        assert ci.lower == pytest.approx(0.106, abs=2e-3)
        assert ci.upper == pytest.approx(0.543, abs=2e-3)

    def test_neyman_interval(self, pit):
        ci = confidence_interval(
            tau_hat(pit), neyman_variance(pit), 0.95, method="neyman"
        )
        assert ci.lower == pytest.approx(0.072, abs=2e-3)
        assert ci.upper == pytest.approx(0.577, abs=2e-3)

    def test_classic_interval(self, pit):
        ci = confidence_interval(
            tau_hat(pit), classic_neyman_variance(pit), 0.95, method="neyman-classic"
        )
        assert ci.lower == pytest.approx(0.069, abs=2e-3)
        assert ci.upper == pytest.approx(0.580, abs=2e-3)

    def test_neyman_never_below_improved(self):
        for obs in (
            ObservedTable(3, 1, 2, 4),
            ObservedTable(1, 1, 1, 1),
            ObservedTable(5, 0, 0, 7),
        ):
            assert neyman_variance(obs) >= improved_variance(obs)

    def test_equal_when_tau_hat_is_zero(self):
        obs = ObservedTable(1, 1, 1, 1)
        assert neyman_variance(obs) == improved_variance(obs)

    def test_sensitivity_at_zero_equals_improved(self, pit):
        assert sensitivity_variance(pit, 0) == improved_variance(pit)

    def test_sensitivity_decrement_is_exact(self, pit):
        n = pit.total
        step = Fraction(2, (n - 1) * n)
        for n01 in range(5):
            assert (
                sensitivity_variance(pit, n01) - sensitivity_variance(pit, n01 + 1)
                == step
            )

    @pytest.mark.parametrize(
        "n01, lower, upper", [(2, 0.119, 0.530), (5, 0.141, 0.508)]
    )
    def test_sensitivity_intervals(self, pit, n01, lower, upper):
        ci = confidence_interval(
            tau_hat(pit), sensitivity_variance(pit, n01), 0.95, method="sensitivity"
        )
        assert ci.lower == pytest.approx(lower, abs=2e-3)
        assert ci.upper == pytest.approx(upper, abs=2e-3)

    def test_negative_plugin_variance_raises(self, pit):
        with pytest.raises(InfeasibleError):
            sensitivity_variance(pit, 18)


class TestN01Bounds:
    def test_worked_example_independence_point(self, pit):
        # 53 * (5/21) * (14/32) = 5.52, so independence sits at 5.
        assert n01_bounds(pit, "nonneg-correlation-and-effect") == (0, 5)

    def test_symmetric_table(self):
        assert n01_bounds(ObservedTable(1, 1, 1, 1)) == (0, 1)

    def test_frechet_lower_positive_for_negative_effect(self):
        obs = ObservedTable(1, 3, 3, 1)
        lo, hi = n01_bounds(obs, "frechet")
        assert lo > 0
        assert (lo, hi) == (4, 6)

    def test_inconsistent_assumption_raises(self):
        with pytest.raises(InfeasibleError):
            n01_bounds(ObservedTable(0, 2, 3, 1), "nonneg-correlation")

    def test_unknown_assumption_rejected(self, pit):
        with pytest.raises(ValueError):
            n01_bounds(pit, "whatever")


class TestConfidenceInterval:
    def test_zero_variance_degenerates(self):
        ci = confidence_interval(0.25, 0, 0.95)
        assert ci.lower == ci.point == ci.upper == 0.25

    def test_quantile_accuracy(self):
        assert normal_quantile(0.95) == pytest.approx(1.959963984540054, abs=1e-9)
        assert normal_quantile(0.999999999999999) > 7

    def test_level_validation(self):
        with pytest.raises(ValueError):
            confidence_interval(0.0, 1.0, 1.0)
        # Inside (0, 1), but (1 + level) / 2 rounds to 1.0.
        with pytest.raises(ValueError, match="level 0.9999999999999999"):
            confidence_interval(0.0, 1.0, 0.9999999999999999)
        with pytest.raises(ValueError):
            confidence_interval(0.0, -1.0, 0.95)


class TestSensitivitySweep:
    def test_worked_example_lengths_decrease(self, pit):
        rows = sensitivity_sweep(pit, range(6), 0.95)
        lengths = [row.interval.length for row in rows]
        assert lengths[0] == pytest.approx(0.437, abs=2e-3)
        assert lengths[-1] == pytest.approx(0.367, abs=2e-3)
        assert all(a > b for a, b in zip(lengths, lengths[1:]))

    def test_first_row_is_the_improved_interval(self, pit):
        (row,) = sensitivity_sweep(pit, [0], 0.95)
        reference = confidence_interval(tau_hat(pit), improved_variance(pit), 0.95)
        assert row.interval.lower == reference.lower
        assert row.interval.upper == reference.upper
        assert row.variance == float(improved_variance(pit))

    def test_monotonicity_row_has_largest_variance(self, pit):
        rows = sensitivity_sweep(pit, range(6), 0.95)
        variances = [row.variance for row in rows]
        assert variances[0] == max(variances)

    def test_infeasible_rows_are_marked_not_dropped(self, pit):
        rows = sensitivity_sweep(pit, [0, 18], 0.95)
        assert [row.n01 for row in rows] == [0, 18]
        assert rows[0].feasible
        assert not rows[1].feasible
        assert rows[1].interval is None
        assert "negative" in rows[1].note


class TestPopulationFormulas:
    def test_hand_case_variance(self):
        # Six assignments of two treated among (1,2,0,1) give var 1/6.
        assert population_tau_variance(ScienceTable(1, 2, 0, 1), 2) == Fraction(1, 6)

    def test_hand_case_prediction_mse(self):
        assert population_attributable_mse(ScienceTable(1, 2, 0, 1), 2) == 1

    def test_variance_sits_inside_analytic_bounds(self):
        # For any table with a nonnegative outcome correlation, the exact
        # variance lies between the uncorrelated and the no-harm extremes.
        for science in science_tables_up_to(8):
            n = science.total
            p1 = Fraction(science.n11 + science.n10, n)
            p0 = Fraction(science.n11 + science.n01, n)
            tau = science.tau
            if science.n01 > n * p0 * (1 - p1):
                continue
            for n1 in range(1, n):
                n0 = n - n1
                var = population_tau_variance(science, n1)
                scale = Fraction(n, n - 1)
                upper = scale * (
                    p1 * (1 - p1) / n1 + p0 * (1 - p0) / n0 - tau * (1 - tau) / n
                )
                lower = scale * (
                    Fraction(n0, n) * p1 * (1 - p1) / n1
                    + Fraction(n1, n) * p0 * (1 - p0) / n0
                )
                assert lower <= var <= upper

    def test_arm_size_validation(self):
        with pytest.raises(ValueError):
            population_tau_variance(ScienceTable(1, 2, 0, 1), 4)
