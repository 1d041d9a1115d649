"""Discrete posteriors, priors, and highest-density windows."""

import math
import sys
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
    bayes,
    enumerate_assignments,
    general_support,
    hpd_interval,
    hpd_window,
    likelihood,
    posterior_points,
    tau_posterior,
    tau_posterior_sweep,
)
from test_properties import _reference_likelihood


class TestDiscreteDistribution:
    def test_rejects_misaligned_and_unsorted(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(values=(1, 2), weights=(1,))
        with pytest.raises(ValueError):
            DiscreteDistribution(values=(2, 1), weights=(1, 1))
        with pytest.raises(ValueError):
            DiscreteDistribution(values=(1, 1), weights=(1, 1))

    def test_rejects_an_empty_support(self):
        with pytest.raises(ValueError, match="empty distribution"):
            DiscreteDistribution((), ())

    def test_rejects_bad_weights(self):
        # Negative, non-integer and all-zero weights.
        bad = [(1, -1), (3, -2), (1, 0.5), (1.0, 1.0), (Fraction(1, 2), 1), (0, 0)]
        for weights in bad:
            with pytest.raises(ValueError):
                DiscreteDistribution(values=(1, 2), weights=weights)

    @pytest.mark.parametrize("weights", [(True, 1), (1, False), (True, True)])
    def test_rejects_a_bool_weight(self, weights):
        # A bool is an int subclass; as a weight it is neither a count nor a draw.
        with pytest.raises(ValueError) as raised:
            DiscreteDistribution((1, 2), weights)
        assert str(raised.value) == "weights must be nonnegative integers"

    @pytest.mark.parametrize("denominator", [0, -3, 2.0, True])
    def test_rejects_a_denominator_that_is_not_a_positive_integer(self, denominator):
        with pytest.raises(ValueError, match="denominator must be a positive integer"):
            DiscreteDistribution((1, 2), (1, 1), denominator)

    def test_reads_integer_values_over_their_denominator(self):
        # A tau posterior's values are integers over N: support, mode, median
        # and the HPD window ends read them as Fractions, built on read.
        dist = DiscreteDistribution((-1, 2, 4), (1, 3, 1), 6)
        assert dist.support == (Fraction(-1, 6), Fraction(1, 3), Fraction(2, 3))
        assert (dist.mode(), dist.median()) == (Fraction(1, 3), Fraction(1, 3))
        assert hpd_window(dist, 0.5) == (Fraction(1, 3), Fraction(1, 3), Fraction(3, 5))
        assert all(type(v) is Fraction for v in (*dist.support, dist.mode(), dist.median()))

    def test_mode_prefers_smallest_on_tie(self):
        dist = DiscreteDistribution(values=(1, 2, 3), weights=(2, 1, 2))
        assert dist.mode() == 1

    def test_median_and_mean(self):
        dist = DiscreteDistribution(values=(0, 1, 2), weights=(1, 1, 2))
        assert dist.total == 4
        assert dist.mass == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
        assert dist.median() == 1
        assert sum(v * m for v, m in zip(dist.support, dist.mass)) == Fraction(5, 4)

    def test_scaling_the_weights_changes_nothing(self):
        small = DiscreteDistribution(values=(0, 1, 2), weights=(1, 1, 2))
        large = DiscreteDistribution(values=(0, 1, 2), weights=(7, 7, 14))
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

    @pytest.mark.parametrize("weight", [math.inf, -math.inf, math.nan])
    def test_rejects_a_non_finite_weight_naming_its_point(self, weight):
        with pytest.raises(ValueError, match=r"^prior weight at .* = \(3, 4\) must be finite$"):
            Prior({(1, 2): 1, (3, 4): weight})

    @pytest.mark.parametrize("weight", ["1/3", "nan", b"1", True, None, [1], 1j],
                             ids=["fraction-string", "nan-string", "bytes", "bool", "none",
                                  "list", "complex"])
    def test_rejects_a_weight_that_is_not_a_number_naming_its_point(self, weight):
        with pytest.raises(ValueError) as raised:
            Prior({(1, 2): 1, (3, 4): weight})
        assert str(raised.value) == (
            f"prior weight at (n11, n10) = (3, 4) must be a number, got {weight!r}"
        )

    @pytest.mark.parametrize("weight", [-1, -0.5, Fraction(-1, 3)])
    def test_rejects_a_negative_weight_naming_its_point(self, weight):
        with pytest.raises(ValueError) as raised:
            Prior({(1, 2): 1, (3, 4): weight})
        assert str(raised.value) == (
            f"prior weight at (n11, n10) = (3, 4) must be nonnegative, got {weight!r}"
        )

    @pytest.mark.parametrize("point,message", [
        ((True, 2), "n11 must be an integer, got True"),
        ((1, False), "n10 must be an integer, got False"),
    ], ids=["n11", "n10"])
    def test_rejects_a_bool_count(self, point, message):
        with pytest.raises(TypeError) as raised:
            Prior({point: 1})
        assert str(raised.value) == message

    def test_rejects_bad_coordinates(self):
        with pytest.raises(ValueError):
            Prior({(-1, 2): 1})
        with pytest.raises(TypeError):
            Prior({(1.5, 2): 1})

    def test_equal_priors_hash_equal(self):
        prior = Prior({(1, 2): 1})
        assert prior == Prior({(1, 2): Fraction(2, 2)})
        assert hash(prior) == hash(Prior({(1, 2): 1.0}))
        assert {prior, Prior({(1, 2): 1}), UNIFORM} == {prior, UNIFORM}
        assert dict(prior.weights) == {(1, 2): 1}
        with pytest.raises(TypeError):
            prior.weights[(3, 4)] = 1

    def test_key_is_the_grid_coordinate_at_the_call_harmed_count(self, pit):
        # The call states the harmed count; a key names only (n11, n10).
        dist = tau_posterior(pit, 2, Prior({(16, 20): 1}))
        assert dist.support == (Fraction(18, 53),)


class TestPosteriorPoints:
    def test_uniform_posterior_is_normalized_likelihood(self, pit):
        dist = posterior_points(pit, 0)
        likelihoods = [_reference_likelihood(pit, p) for p in dist.support]
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
        # Nothing is left to weigh: the request is infeasible, as an empty
        # support is.
        for posterior in (posterior_points, tau_posterior, a_posterior):
            with pytest.raises(InfeasibleError, match="zero weight to the entire support"):
                posterior(pit, 0, prior)

    def test_empty_support_raises(self, pit):
        with pytest.raises(InfeasibleError):
            posterior_points(pit, pit.n10 + pit.n01 + 1)

    @pytest.mark.parametrize("posterior", [posterior_points, tau_posterior, a_posterior])
    @pytest.mark.parametrize("prior", [UNIFORM, Prior({(13, 17): 1})], ids=["uniform", "table"])
    def test_each_posterior_checks_the_support_at_its_door(self, pit, monkeypatch, posterior,
                                                           prior):
        # The support and the harmed count are checked once, before either
        # the table prior's weighting or the row sums start.
        def unreached(*args):
            raise AssertionError("the support check came too late")

        monkeypatch.setattr(bayes, "_weighted", unreached)
        monkeypatch.setattr(bayes, "_row_sums", unreached)
        infeasible = pit.n10 + pit.n01 + 1
        with pytest.raises(InfeasibleError, match=f"empty likelihood support at n01={infeasible}"):
            posterior(pit, infeasible, prior)
        with pytest.raises(TypeError, match="n01 must be an integer"):
            posterior(pit, True, prior)
        with pytest.raises(ValueError, match="n01 must be nonnegative"):
            posterior(pit, -1, prior)

    @pytest.mark.parametrize("n01", [0, 3])
    def test_a_table_prior_walks_exactly_its_dense_rows(self, pit, monkeypatch, n01):
        # A row is walked when its prior points times its runs reach its
        # window length, and every other point takes its urn sum. A flat prior
        # over the support walks every row and is the uniform posterior; a
        # full row beside one lone point walks that row alone, and both read
        # the pointwise likelihood.
        walked = []
        add_run = likelihood._add_run

        def spy(obs, s, *args):
            walked.append(s - n01)  # the run's row n11
            add_run(obs, s, *args)

        monkeypatch.setattr(likelihood, "_add_run", spy)
        support = general_support(pit, n01)
        flat = posterior_points(pit, n01, Prior({(p.n11, p.n10): 1 for p in support}))
        assert flat == posterior_points(pit, n01)
        assert set(walked) == {p.n11 for p in support}

        walked.clear()
        row, lone = support[0].n11 + 3, support[-1]
        weights = {(p.n11, p.n10): 2 for p in support if p.n11 == row}
        weights[lone.n11, lone.n10] = Fraction(1, 3)
        dist = posterior_points(pit, n01, Prior(weights))
        assert set(walked) == {row}
        raw = {p: weights.get((p.n11, p.n10), 0) * _reference_likelihood(pit, p) for p in support}
        total = sum(raw.values())
        assert (dist.support, dist.mass) == (support, tuple(raw[p] / total for p in support))

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
        likelihoods = [_reference_likelihood(obs, p) for p in dist.support]
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


    @pytest.mark.parametrize("n01s", [range(0, 10, 3), range(5, 0, -1), range(3, 3, 2),
                                      [0, 3, 6]], ids=repr)
    def test_sweep_rejects_a_range_not_stepping_by_one(self, pit, n01s):
        # The sweep gives the count n01s[0] + i its slot i; with any other
        # step it would label posteriors with the wrong counts.
        with pytest.raises(ValueError, match=r"must be a range stepping by \+1"):
            tau_posterior_sweep(pit, n01s)

    def test_empty_sweep_yields_nothing(self, pit):
        assert list(tau_posterior_sweep(pit, range(0))) == []


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
        dist = DiscreteDistribution(values=(0, 1), weights=(1, 1))
        assert hpd_window(dist, 0.6)[:2] == (0, 1)

    def test_high_level_returns_full_hull(self):
        dist = DiscreteDistribution(values=(0, 1, 2), weights=(2, 5, 3))
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
        dist = DiscreteDistribution(values=tuple(range(10)), weights=(1,) * 10)
        assert hpd_window(dist, level) == window

    def test_window_search_is_linear_in_the_support(self):
        # Counting the interpreter's line events, not timing them, bounds the
        # work. Trying every width and every window at it took 605 events per
        # point on Python 3.11; the one two-pointer scan takes about 2.
        dist = DiscreteDistribution(tuple(range(400)), (1,) * 400)
        events = 0

        def tracer(frame, event, arg):
            nonlocal events
            events += event == "line"
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            window = hpd_window(dist, 0.99)
        finally:
            sys.settrace(previous)
        assert window == (0, 395, Fraction(99, 100))
        assert events < 20 * 400

    def test_interval_point_is_the_mode(self, pit):
        dist = a_posterior(pit, 0)
        estimate = hpd_interval(dist, 0.95)
        assert estimate.point == 10.0
        assert (estimate.lower, estimate.upper) == (2.0, 16.0)
        assert estimate.method == "bayes-hpd"

    def test_level_validation(self, pit):
        with pytest.raises(ValueError):
            hpd_window(a_posterior(pit, 0), 1.0)
