"""Discrete posteriors, priors, and highest-density windows."""

from fractions import Fraction

import pytest

from causalurn import (
    UNIFORM,
    DiscreteDistribution,
    InfeasibleError,
    ObservedTable,
    Prior,
    ScienceTable,
    a_posterior,
    enumerate_assignments,
    general_support,
    hpd_interval,
    hpd_window,
    likelihood_exact,
    posterior_points,
    tau_posterior,
)


class TestDiscreteDistribution:
    def test_rejects_misaligned_and_unsorted(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(support=(1, 2), weights=(1,))
        with pytest.raises(ValueError):
            DiscreteDistribution(support=(2, 1), weights=(1, 1))
        with pytest.raises(ValueError):
            DiscreteDistribution(support=(1, 1), weights=(1, 1))

    def test_rejects_bad_weights(self):
        # Negative, non-integer and all-zero weights.
        bad = [(1, -1), (3, -2), (1, 0.5), (1.0, 1.0), (Fraction(1, 2), 1), (0, 0)]
        for weights in bad:
            with pytest.raises(ValueError):
                DiscreteDistribution(support=(1, 2), weights=weights)

    def test_mode_prefers_smallest_on_tie(self):
        dist = DiscreteDistribution(support=(1, 2, 3), weights=(2, 1, 2))
        assert dist.mode() == 1

    def test_median_and_mean(self):
        dist = DiscreteDistribution(support=(0, 1, 2), weights=(1, 1, 2))
        assert dist.total == 4
        assert dist.mass == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
        assert dist.median() == 1
        assert sum(v * m for v, m in zip(dist.support, dist.mass)) == Fraction(5, 4)

    def test_scaling_the_weights_changes_nothing(self):
        small = DiscreteDistribution(support=(0, 1, 2), weights=(1, 1, 2))
        large = DiscreteDistribution(support=(0, 1, 2), weights=(7, 7, 14))
        assert large.mass == small.mass
        assert (large.mode(), large.median()) == (small.mode(), small.median())
        assert hpd_window(large, 0.7) == hpd_window(small, 0.7)


class TestPrior:
    def test_uniform_weight(self):
        assert UNIFORM == Prior()
        assert UNIFORM.weights is None

    def test_table_weights(self):
        prior = Prior({(1, 2): 2, (0, 0): 0})
        assert prior.weights == {(1, 2): 2, (0, 0): 0}
        assert all(isinstance(w, Fraction) for w in prior.weights.values())
        assert (9, 9) not in prior.weights

    def test_rejects_empty_or_negative(self):
        with pytest.raises(ValueError):
            Prior({})
        with pytest.raises(ValueError):
            Prior({(1, 2): -1})
        with pytest.raises(ValueError):
            Prior({(1, 2): 0})

    def test_rejects_bad_coordinates(self):
        with pytest.raises(ValueError):
            Prior({(-1, 2): 1})
        with pytest.raises(TypeError):
            Prior({(1.5, 2): 1})

    def test_key_is_the_grid_coordinate_at_the_call_harmed_count(self, pit):
        # The call states the harmed count; a key names only (n11, n10).
        dist = tau_posterior(pit, 2, Prior({(16, 20): 1}))
        assert dist.support == (Fraction(18, 53),)


class TestPosteriorPoints:
    def test_uniform_posterior_is_normalized_likelihood(self, pit):
        dist = posterior_points(pit, 0)
        likelihoods = [likelihood_exact(pit, p) for p in dist.support]
        total = sum(likelihoods)
        for mass, lik in zip(dist.mass, likelihoods):
            assert mass == lik / total  # exact rational equality

    def test_point_mass_prior(self, pit):
        target = general_support(pit, 0)[100]
        prior = Prior({(target.n11, target.n10): 1})
        dist = posterior_points(pit, 0, prior)
        assert dict(zip(dist.support, dist.mass))[target] == 1
        assert sum(dist.mass) == 1

    def test_annihilating_prior_raises(self, pit):
        prior = Prior({(50, 1): 1})
        with pytest.raises(ValueError):
            posterior_points(pit, 0, prior)

    def test_empty_support_raises(self, pit):
        with pytest.raises(InfeasibleError):
            posterior_points(pit, pit.n10 + pit.n01 + 1)

    @pytest.mark.parametrize("n01", [0, 1])
    def test_small_population_matches_oracle_bayes(self, n01):
        # Recompute the posterior from raw assignment probabilities.
        obs = ObservedTable(2, 1, 1, 2)
        dist = posterior_points(obs, n01)
        oracle_masses = {}
        for point in general_support(obs, n01):
            n00 = obs.total - point.n11 - point.n10 - point.n01
            science = ScienceTable(point.n11, point.n10, point.n01, n00)
            assignments = enumerate_assignments(science, 3)
            oracle_masses[point] = assignments.outcomes.get(obs, Fraction(0))
        total = sum(oracle_masses.values())
        for point, mass in zip(dist.support, dist.mass):
            assert mass == oracle_masses[point] / total


class TestPosteriorFloatPath:
    def test_large_population_matches_exact_masses(self):
        # N = 106: masses are exact rationals at every population size.
        obs = ObservedTable(40, 25, 12, 29)
        assert obs.total > 60
        dist = posterior_points(obs, 2)
        likelihoods = [likelihood_exact(obs, p) for p in dist.support]
        total = sum(likelihoods)
        for mass, lik in zip(dist.mass, likelihoods):
            assert mass == lik / total  # exact rational equality
        assert sum(dist.mass) == 1


class TestTauPosterior:
    def test_worked_example_summaries(self, pit):
        # The posterior median stays on 16/53 across the whole sweep; the
        # exact-mass mode sits one grid step higher.
        for n01 in (0, 2, 5):
            dist = tau_posterior(pit, n01)
            assert dist.median() == Fraction(16, 53)
            assert dist.mode() == Fraction(17, 53)

    def test_support_is_the_shifted_grid(self, pit):
        dist = tau_posterior(pit, 2)
        n = pit.total
        assert all((v * n + 2).denominator == 1 for v in dist.support)

    def test_pushforward_consistency(self, pit):
        points = posterior_points(pit, 0)
        dist = tau_posterior(pit, 0)
        recomputed = {}
        for point, mass in zip(points.support, points.mass):
            key = Fraction(point.n10, pit.total)
            recomputed[key] = recomputed.get(key, 0) + mass
        assert dict(zip(dist.support, dist.mass)) == recomputed

    def test_mean_matches_grid_sum(self, pit):
        # The mean defined over the pushforward equals the grid sum over
        # the joint posterior, exactly.
        points = posterior_points(pit, 0)
        dist = tau_posterior(pit, 0)
        grid_sum = sum(
            Fraction(point.n10, pit.total) * mass
            for point, mass in zip(points.support, points.mass)
        )
        assert sum(v * m for v, m in zip(dist.support, dist.mass)) == grid_sum


class TestAPosterior:
    def test_worked_example_summaries(self, pit):
        dist = a_posterior(pit, 0)
        assert dist.mode() == 10
        assert dist.median() == 10
        assert dist.support[0] == 0
        assert dist.support[-1] == 18

    def test_bounded_by_treated_successes_under_monotonicity(self, pit):
        dist = a_posterior(pit, 0)
        assert dist.support[-1] <= pit.n11

    def test_point_mass_prior_degenerates(self, pit):
        target = general_support(pit, 0)[0]
        dist = a_posterior(pit, 0, Prior({(target.n11, target.n10): 3}))
        assert len(dist.support) == 1
        assert dist.mass[0] == 1

    def test_pushforward_consistency(self, pit):
        points = posterior_points(pit, 2)
        dist = a_posterior(pit, 2)
        recomputed = {}
        for point, mass in zip(points.support, points.mass):
            key = pit.n11 + pit.n01 - 2 - point.n11
            recomputed[key] = recomputed.get(key, 0) + mass
        assert dict(zip(dist.support, dist.mass)) == recomputed


class TestHpd:
    def test_worked_example_windows(self, pit):
        # Exact minimal-mass windows on the 1/53 grid.
        expected = {
            0: (Fraction(4, 53), Fraction(26, 53)),
            2: (Fraction(5, 53), Fraction(26, 53)),
            5: (Fraction(6, 53), Fraction(25, 53)),
        }
        for n01, (lo, hi) in expected.items():
            wlo, whi, mass = hpd_window(tau_posterior(pit, n01), 0.95)
            assert (wlo, whi) == (lo, hi)
            assert mass >= Fraction(95, 100)

    def test_window_lengths_shrink_with_harm(self, pit):
        lengths = []
        for n01 in (0, 2, 5):
            lo, hi, _ = hpd_window(tau_posterior(pit, n01), 0.95)
            lengths.append(hi - lo)
        assert lengths == sorted(lengths, reverse=True)
        assert lengths == [Fraction(22, 53), Fraction(21, 53), Fraction(19, 53)]

    def test_a_window(self, pit):
        lo, hi, _ = hpd_window(a_posterior(pit, 0), 0.95)
        assert (lo, hi) == (2, 16)

    def test_forced_two_point_window(self):
        dist = DiscreteDistribution(support=(0, 1), weights=(1, 1))
        assert hpd_window(dist, 0.6)[:2] == (0, 1)

    def test_high_level_returns_full_hull(self):
        dist = DiscreteDistribution(support=(0, 1, 2), weights=(2, 5, 3))
        assert hpd_window(dist, 0.9999)[:2] == (0, 2)

    @pytest.mark.parametrize(
        "level, window",
        [
            # Float 0.1 lies above 1/10, so one value is not enough.
            (0.1, (0, 1, Fraction(1, 5))),
            # Float 0.3 and 0.7 lie below 3/10 and 7/10.
            (0.3, (0, 2, Fraction(3, 10))),
            (0.7, (0, 6, Fraction(7, 10))),
        ],
    )
    def test_level_is_compared_exactly(self, level, window):
        dist = DiscreteDistribution(support=tuple(range(10)), weights=(1,) * 10)
        assert hpd_window(dist, level) == window

    def test_interval_point_is_the_mode(self, pit):
        dist = a_posterior(pit, 0)
        estimate = hpd_interval(dist, 0.95)
        assert estimate.point == 10.0
        assert (estimate.lower, estimate.upper) == (2.0, 16.0)
        assert estimate.method == "bayes-hpd"

    def test_level_validation(self, pit):
        with pytest.raises(ValueError):
            hpd_window(a_posterior(pit, 0), 1.0)
