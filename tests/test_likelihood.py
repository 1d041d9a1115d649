"""The exact likelihood, its log views, and maximum likelihood."""

import inspect
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from causalurn import (
    LOG_ZERO,
    InfeasibleError,
    ObservedTable,
    ParameterPoint,
    Prior,
    enumerate_assignments,
    general_support,
    in_general_support,
    likelihood,
    likelihood_exact,
    loglik_general,
    loglik_monotone,
    mle,
    monotone_support,
    tau_posterior,
)
from causalurn.verify import science_tables_up_to
from test_properties import _reference_likelihood


class TestMonotoneLikelihood:
    def test_tiny_case_by_hand(self):
        # Science (n11=1, n10=1, n00=1), one treated: exactly one of three
        # assignments produces this observed table.
        obs = ObservedTable(1, 0, 1, 1)
        value = loglik_monotone(obs, ParameterPoint(n11=1, n10=1))
        assert value == pytest.approx(math.log(Fraction(1, 3)), abs=1e-12)

    def test_zero_off_region(self, pit):
        assert loglik_monotone(pit, ParameterPoint(n11=0, n10=0)) == LOG_ZERO

    def test_requires_monotone_point(self, pit):
        with pytest.raises(ValueError):
            loglik_monotone(pit, ParameterPoint(n11=5, n10=10, n01=1))

    @pytest.mark.parametrize(
        "science_cells, n_treated",
        [((2, 1, 0, 1), 2), ((3, 2, 0, 2), 3), ((1, 1, 0, 1), 1)],
    )
    def test_normalizes_over_data_space(self, science_cells, n_treated):
        # Summed over every possible observed table, the likelihood at the
        # true science point is a probability distribution.
        from causalurn import ScienceTable

        science = ScienceTable(*science_cells)
        point = science.parameter_point
        n_control = science.total - n_treated
        total = 0.0
        for n11 in range(n_treated + 1):
            for n01 in range(n_control + 1):
                obs = ObservedTable(n11, n_treated - n11, n01, n_control - n01)
                value = loglik_monotone(obs, point)
                if value > LOG_ZERO:
                    total += math.exp(value)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestGeneralLikelihood:
    def test_reduces_bitwise_at_zero(self, pit):
        for point in monotone_support(pit):
            general = loglik_general(pit, point)
            mono = loglik_monotone(pit, point)
            assert general == mono  # identical floating-point values

    def test_reduction_over_random_family(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n11, n10, n01, n00 = rng.integers(0, 6, size=4)
            if n11 + n10 == 0 or n01 + n00 == 0:
                continue
            obs = ObservedTable(int(n11), int(n10), int(n01), int(n00))
            for point in monotone_support(obs):
                assert loglik_general(obs, point) == loglik_monotone(obs, point)

    def test_tiny_case_with_harm(self):
        # Science (n11=1, n01=1, n00=1), one treated: only treating the
        # always-responder reproduces the observed table.
        obs = ObservedTable(1, 0, 1, 1)
        value = loglik_general(obs, ParameterPoint(n11=1, n10=0, n01=1))
        assert value == pytest.approx(math.log(Fraction(1, 3)), abs=1e-12)

    def test_finite_exactly_on_support(self, pit):
        for n01 in (0, 2, 5):
            support = set(general_support(pit, n01))
            for n11 in range(0, 26, 2):
                for n10 in range(0, 40, 3):
                    point = ParameterPoint(n11, n10, n01)
                    finite = loglik_general(pit, point) > LOG_ZERO
                    assert finite == (point in support)
                    assert finite == in_general_support(pit, point)

    def test_float_matches_exact_rational(self, pit):
        for n01 in (0, 2, 5):
            for point in general_support(pit, n01):
                exact = likelihood_exact(pit, point)
                assert loglik_general(pit, point) == pytest.approx(
                    math.log(exact), abs=1e-9
                )


    def test_every_single_point_reads_the_one_urn_sum(self, monkeypatch):
        # likelihood._numerator with its last x term dropped, rebuilt from its
        # source and patched into every module that binds it, moves the exact
        # and log likelihood of a point and a table prior's posterior alike.
        source = inspect.getsource(likelihood._numerator)
        right = "min(n11, obs.n11, d) + 1"
        assert right in source
        obs, point = ObservedTable(2, 1, 1, 2), ParameterPoint(1, 2, 1)
        prior = Prior({(1, 2): 1, (2, 1): 3})
        before = (likelihood_exact(obs, point), loglik_general(obs, point),
                  tau_posterior(obs, 1, prior))
        namespace = dict(vars(likelihood))
        exec(source.replace(right, "min(n11, obs.n11, d)"), namespace)
        bound = [module for name, module in sys.modules.items() if name.startswith("causalurn")
                 and getattr(module, "_numerator", None) is likelihood._numerator]
        assert {module.__name__ for module in bound} == {"causalurn.likelihood", "causalurn.bayes"}
        for module in bound:
            monkeypatch.setattr(module, "_numerator", namespace["_numerator"])
        after = (likelihood_exact(obs, point), loglik_general(obs, point),
                 tau_posterior(obs, 1, prior))
        assert all(a != b for a, b in zip(after, before))


class TestExactLikelihoodAgainstOracle:
    def test_equals_assignment_probability(self):
        # Exact rational equality for every design and reachable table.
        for science in science_tables_up_to(6):
            point = science.parameter_point
            for n_treated in range(1, science.total):
                dist = enumerate_assignments(science, n_treated)
                for obs, probability in dist.outcomes.items():
                    assert likelihood_exact(obs, point) == probability

    @pytest.mark.parametrize("science_cells", [(2, 1, 1, 2), (1, 2, 2, 3)])
    @pytest.mark.parametrize("n_treated", [2, 3])
    def test_normalizes_over_data_space_with_harm(self, science_cells, n_treated):
        from causalurn import ScienceTable

        science = ScienceTable(*science_cells)
        point = science.parameter_point
        n_control = science.total - n_treated
        exact_total = Fraction(0)
        log_total = 0.0
        for n11 in range(n_treated + 1):
            for n01 in range(n_control + 1):
                obs = ObservedTable(n11, n_treated - n11, n01, n_control - n01)
                exact_total += likelihood_exact(obs, point)
                value = loglik_general(obs, point)
                if value > LOG_ZERO:
                    log_total += math.exp(value)
        assert exact_total == 1
        assert log_total == pytest.approx(1.0, abs=1e-9)


class TestMaxLikelihood:
    def test_worked_example_regression(self, pit):
        # Exhaustive exact-rational argmax over the 323-point grid.
        result = mle(pit, 0)
        assert [(p.n11, p.n10) for p in result.points] == [(12, 18)]
        assert result.tau_values == (Fraction(18, 53),)

    @pytest.mark.parametrize("n01, expect", [(2, (10, 20)), (5, (7, 23))])
    def test_worked_example_with_harm(self, pit, n01, expect):
        result = mle(pit, n01)
        assert [(p.n11, p.n10) for p in result.points] == [expect]
        assert result.tau_values == (Fraction(18, 53),)

    def test_symmetric_table(self):
        result = mle(ObservedTable(1, 1, 1, 1), 0)
        assert [(p.n11, p.n10) for p in result.points] == [(2, 0)]
        assert result.tau_values == (Fraction(0),)

    def test_three_way_tie_preserved(self):
        # Likelihoods 1/3, 2/3, 2/3, 2/3 over the four support points.
        result = mle(ObservedTable(1, 0, 1, 1), 0)
        assert [(p.n11, p.n10) for p in result.points] == [(1, 2), (2, 0), (2, 1)]
        assert result.tau_values == (
            Fraction(0),
            Fraction(1, 3),
            Fraction(2, 3),
        )

    def test_maximizes_exact_likelihood(self):
        for obs in (ObservedTable(2, 1, 1, 2), ObservedTable(1, 2, 2, 1)):
            result = mle(obs, 1)
            best = max(_reference_likelihood(obs, p) for p in general_support(obs, 1))
            assert all(_reference_likelihood(obs, p) == best for p in result.points)

    def test_empty_support_raises(self, pit):
        with pytest.raises(InfeasibleError):
            mle(pit, pit.n10 + pit.n01 + 1)

    def test_float_path_agrees_with_exact(self):
        # N = 106: the argmax maximizes the exact likelihood at every N.
        obs = ObservedTable(40, 25, 12, 29)  # N = 106
        assert obs.total > 60
        result = mle(obs, 3)
        best = max(_reference_likelihood(obs, p) for p in general_support(obs, 3))
        assert all(_reference_likelihood(obs, p) == best for p in result.points)

    def test_tie_kept_above_old_split(self):
        # N = 70: both points have the same exact likelihood, and both
        # must be reported.
        obs = ObservedTable(10, 3, 30, 27)
        result = mle(obs, 0)
        assert [(p.n11, p.n10) for p in result.points] == [(37, 16), (37, 17)]
        assert len({_reference_likelihood(obs, p) for p in result.points}) == 1
