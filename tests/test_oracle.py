"""The enumeration oracle itself: exactness, caps, Monte Carlo, normality."""

import dataclasses
import inspect
import itertools
import math
import os
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalurn import (
    EnumerationCapError,
    ObservedTable,
    ScienceTable,
    enumerate_assignments,
    lemma1_check,
    monte_carlo,
    normality_check,
    oracle,
    population_attributable_mse,
    population_tau_variance,
)
from causalurn.oracle import DEFAULT_ENUM_CAP, ENUM_CAP_ENV, NormalityReport, enumeration_cap
from causalurn.verify import science_tables_up_to


@st.composite
def wide_designs(draw):
    """A science table of up to 2,000 units and an arm of at most 3 of them."""
    total = draw(st.integers(2, 2000))
    n11 = draw(st.integers(0, total))
    n10 = draw(st.integers(0, total - n11))
    n01 = draw(st.integers(0, total - n11 - n10))
    science = ScienceTable(n11, n10, n01, total - n11 - n10 - n01)
    return science, draw(st.integers(1, min(3, total - 1)))


def _counts(science):
    return science.n11, science.n10, science.n01, science.n00


def _hooked_design_laws(right, hook):
    # oracle._design_laws rebuilt from its source with its one expression
    # ``right`` passed through hook(value, x, y) at each pair: x and y are the
    # pair's treated and control compositions as (x11, x10, x01, x00).
    source = inspect.getsource(oracle._design_laws)
    assert source.count(right) == 1
    namespace = dict(vars(oracle), _hook=hook)
    exec(source.replace(right, f"_hook({right}, (x11, x10, x01, x00), (y11, y10, y01, rest - y01))"),
         namespace)
    return namespace["_design_laws"]


def _three_pass_law(dist):
    # The tally and both sums as they were taken before the one pass: each
    # in its own pass over _observed().
    n1, n0 = dist.n_treated, dist.n_control
    tally = {}
    for weight, n11, n01, _ in dist._observed():
        tally[n11, n01] = tally.get((n11, n01), 0) + weight

    def sums(pairs):
        return sum(w * v for w, v in pairs), sum(w * v * v for w, v in pairs)

    return (list(tally.items()),
            sums([(w, n11 * n0 - n01 * n1) for w, n11, n01, _ in dist._observed()]),
            sums([(w, (a - n11) * n0 + n01 * n1) for w, n11, n01, a in dist._observed()]))


def _assert_one_pass(dist):
    tally, tau_sums, gap_sums = dist._law()
    assert (list(tally.items()), tau_sums, gap_sums) == _three_pass_law(dist)
    assert (dist._law()[0], dist.tau_hat_sums(), dist.prediction_gap_sums()) == (
        tally, tau_sums, gap_sums)


class TestEnumerate:
    def test_three_equiprobable_outcomes(self):
        dist = enumerate_assignments(ScienceTable(1, 1, 0, 1), 1)
        assert len(dist.outcomes) == 3
        assert all(p == Fraction(1, 3) for p in dist.outcomes.values())

    def test_degenerate_science_single_outcome(self):
        dist = enumerate_assignments(ScienceTable(0, 0, 0, 4), 2)
        assert dist.outcomes == {ObservedTable(0, 2, 0, 2): Fraction(1)}

    def test_hand_case_moments(self):
        dist = enumerate_assignments(ScienceTable(1, 2, 0, 1), 2)
        mean, variance = dist.tau_hat_moments()
        assert (mean, variance) == (Fraction(1, 2), Fraction(1, 6))

    def test_probabilities_sum_to_one_exactly(self):
        dist = enumerate_assignments(ScienceTable(2, 3, 1, 2), 4)
        assert sum(dist.outcomes.values()) == 1
        assert sum(r.weight for r in dist.records) == dist.denominator

    def test_assignment_count(self):
        dist = enumerate_assignments(ScienceTable(2, 3, 1, 2), 4)
        assert dist.denominator == math.comb(8, 4)
        assert dist.rng is None

    def test_cap_exceeded_instructs_monte_carlo(self, monkeypatch):
        # C(8, 4) = 70 is under the default cap and over this one.
        monkeypatch.setenv(ENUM_CAP_ENV, "10")
        with pytest.raises(EnumerationCapError, match="monte_carlo"):
            enumerate_assignments(ScienceTable(2, 3, 1, 2), 4)

    def test_default_cap_allows_the_worked_example_scale(self):
        # C(53, 32) is astronomically over the cap.
        with pytest.raises(EnumerationCapError):
            enumerate_assignments(ScienceTable(13, 10, 0, 30), 32)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENUM_CAP_ENV, "10")
        assert enumeration_cap() == 10
        with pytest.raises(EnumerationCapError):
            enumerate_assignments(ScienceTable(2, 3, 1, 2), 4)
        monkeypatch.delenv(ENUM_CAP_ENV)
        assert enumeration_cap() == DEFAULT_ENUM_CAP

    def test_arm_validation(self):
        with pytest.raises(ValueError):
            enumerate_assignments(ScienceTable(1, 1, 0, 1), 3)

    def test_the_kernel_on_one_table_per_n_is_the_enumeration(self):
        # verify reads every science table's law of a design off one pass of
        # oracle._design_laws, over the one binomial table of N it builds;
        # enumerate_assignments composes each science table on its own. Both
        # give the same tally, the same total weight and both moment sums as
        # taken per composition, for every science table with N <= 12 and
        # every N1.
        for total, group in itertools.groupby(science_tables_up_to(12), lambda s: s.total):
            sciences = list(group)
            for n_treated in range(1, total):
                laws = oracle._design_laws(total, n_treated)
                for science, (tally, tau_sums, gap_sums) in zip(sciences, laws, strict=True):
                    dist = enumerate_assignments(science, n_treated)
                    pairs, *sums = _three_pass_law(dist)
                    assert (tally, [tau_sums, gap_sums]) == (dict(pairs), sums)
                    assert sum(tally.values()) == dist.denominator == math.comb(total, n_treated)

    def test_the_design_kernel_walks_each_pair_once(self):
        # One step per (treated composition, control composition) pair:
        # C(N1 + 3, 3) C(N0 + 3, 3) per design, 11,881 at N <= 8 and 41,757 at
        # N <= 10. Each is a composition of its science table, so the steps
        # are the enumeration's (science table, composition) pairs.
        steps = 0
        for total in range(2, 11):
            for n_treated in range(1, total):
                pairs = []
                walk = _hooked_design_laws("ways * c01[y01] * c00[rest - y01]",
                                           lambda ways, x, y: pairs.append((x, y)) or ways)
                laws = walk(total, n_treated)
                assert laws == oracle._design_laws(total, n_treated)
                assert len(pairs) == len(set(pairs)) == (
                    math.comb(n_treated + 3, 3) * math.comb(total - n_treated + 3, 3))
                assert {(sum(x), sum(y)) for x, y in pairs} == {(n_treated, total - n_treated)}
                steps += len(pairs)
            if total == 8:
                assert steps == 11_881
        assert steps == 41_757

    @settings(max_examples=60, deadline=None)
    @given(wide_designs())
    def test_the_kernel_on_a_wide_design_table_is_the_enumeration(self, design):
        # An arm of N1 units takes C(c, x) at x <= min(c, N1) alone, for each
        # count c: the kernel's compositions are every (x11, x10, x01, x00)
        # summing to N1 with a positive way count, in lexicographic order.
        # C(2000, 3) is over the default cap, which bounds assignments, not
        # the few compositions of a small arm.
        science, n_treated = design
        reference = tuple(
            (*x, n_treated - sum(x), ways) for x in itertools.product(range(n_treated + 1), repeat=3)
            if sum(x) <= n_treated and (ways := math.prod(
                math.comb(c, t) for c, t in zip(_counts(science), (*x, n_treated - sum(x))))))
        with mock.patch.dict(os.environ, {ENUM_CAP_ENV: str(10**10)}):
            compositions = enumerate_assignments(science, n_treated).compositions
        assert oracle._compose(science, n_treated) == compositions == reference

    def test_one_pass_is_the_three_passes_on_enumerated_laws(self):
        for science in science_tables_up_to(8):
            for n_treated in range(1, science.total):
                _assert_one_pass(enumerate_assignments(science, n_treated))


class TestMonteCarlo:
    def test_same_seed_same_distribution(self):
        science = ScienceTable(3, 4, 1, 5)
        a = monte_carlo(science, 6, draws=2000, seed=42)
        b = monte_carlo(science, 6, draws=2000, seed=42)
        assert a.records == b.records
        assert a.rng == b.rng

    def test_no_draws_raises(self):
        with pytest.raises(ValueError, match="draws must be positive"):
            monte_carlo(ScienceTable(3, 4, 1, 5), 6, 0, 1)

    @pytest.mark.parametrize("draws,seed,error,message", [
        (-5, 1, ValueError, "draws must be positive, got -5"),
        (True, 1, TypeError, "draws must be an integer, got True"),
        (10, -1, ValueError, "seed must be nonnegative, got -1"),
        (10, 1.5, TypeError, "seed must be an integer, got 1.5"),
    ], ids=["draws-negative", "draws-bool", "seed-negative", "seed-float"])
    def test_sampling_options_are_checked_before_numpy_loads(self, monkeypatch, draws, seed,
                                                             error, message):
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(error) as raised:
            monte_carlo(ScienceTable(3, 4, 1, 5), 6, draws, seed)
        assert str(raised.value) == message

    def test_different_seed_differs(self):
        science = ScienceTable(3, 4, 1, 5)
        a = monte_carlo(science, 6, draws=2000, seed=1)
        b = monte_carlo(science, 6, draws=2000, seed=2)
        assert a.records != b.records

    def test_frequencies_sum_to_one(self):
        dist = monte_carlo(ScienceTable(3, 4, 1, 5), 6, draws=777, seed=5)
        assert dist.denominator == 777
        assert sum(r.weight for r in dist.records) == 777
        assert sum(dist.outcomes.values()) == 1
        assert dist.rng.startswith("numpy.random.Generator(PCG64(seed=5))")

    def test_large_population_skips_the_assignment_count(self):
        # C(10^6, 3 * 10^5) would take seconds; the draws need none of it.
        dist = monte_carlo(ScienceTable(250000, 250000, 250000, 250000), 300000, 10, 0)
        assert dist.denominator == 10
        assert sum(r.weight for r in dist.records) == 10

    @settings(max_examples=30, deadline=None)
    @given(wide_designs(), st.integers(1, 3000), st.integers(0, 2**32))
    def test_one_pass_is_the_three_passes_on_sampled_laws(self, design, draws, seed):
        science, _ = design
        n_treated = science.total // 2
        _assert_one_pass(monte_carlo(science, n_treated, draws, seed))

    def test_chunked_draws_equal_one_call(self, monkeypatch):
        science = ScienceTable(3, 4, 1, 5)
        whole = [monte_carlo(science, 6, draws=100, seed=s) for s in range(5)]
        monkeypatch.setattr(oracle, "_MC_CHUNK", 7)
        chunked = [monte_carlo(science, 6, draws=100, seed=s) for s in range(5)]
        assert [d.records for d in chunked] == [d.records for d in whole]

    def test_memory_peak_is_one_chunk_of_draws(self):
        # The chunk's draws, keys and sort copies are freed before the next
        # chunk is drawn; 2^16 draws per chunk peak at about 3 MB.
        monte_carlo(ScienceTable(13, 10, 0, 30), 32, 10, 1)  # numpy loaded outside the trace
        tracemalloc.start()
        try:
            monte_carlo(ScienceTable(13, 10, 0, 30), 32, 100_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_keys_beyond_int64(self):
        # (n11 + 1)(n10 + 1)(n01 + 1) > 2^63, so the keys are tallied as
        # Python ints; the tally must still equal the row-wise one.
        science = ScienceTable(10**7, 10**7, 10**5, 5)
        dist = monte_carlo(science, 5, draws=300, seed=3)
        rng = np.random.default_rng(3)
        rows, counts = np.unique(
            rng.multivariate_hypergeometric([10**7, 10**7, 10**5, 5], 5, size=300),
            axis=0, return_counts=True,
        )
        assert [(r.treated_types, r.weight) for r in dist.records] == [
            (tuple(row.tolist()), count) for row, count in zip(rows, counts.tolist())
        ]

    def test_mean_near_tau_at_example_scale(self):
        # 10^5 draws from the no-harm table behind the worked example.
        science = ScienceTable(13, 10, 0, 30)
        dist = monte_carlo(science, 32, draws=100_000, seed=9)
        mean, _ = dist.tau_hat_moments()
        se = math.sqrt(population_tau_variance(science, 32) / 100_000)
        assert abs(float(mean - science.tau)) <= 4 * se

    def test_prediction_gap_variance_within_5_percent(self):
        science = ScienceTable(13, 10, 6, 24)
        dist = monte_carlo(science, 32, draws=1_000_000, seed=17)
        _, variance = dist.prediction_gap_moments()
        exact = population_attributable_mse(science, 32)
        assert abs(float(variance / exact) - 1) < 0.05


class TestLemma1:
    def test_three_point_hand_case(self):
        report = lemma1_check([1, 0, 0], 1)
        assert report.mean == Fraction(1, 3)
        assert report.variance == Fraction(2, 9)
        assert report.matches

    def test_constant_vector_has_zero_variance(self):
        report = lemma1_check([3, 3, 3, 3], 2)
        assert report.variance == 0
        assert report.matches

    def test_balanced_binary_case(self):
        assert lemma1_check([1, 1, 0, 0], 2).matches

    def test_one_constant_raises(self):
        with pytest.raises(ValueError, match="both arms must contain at least one unit"):
            lemma1_check([1], 1)

    @pytest.mark.parametrize("bad,message", [
        ("1/2", "must be a number, got '1/2'"),
        (None, "must be a number, got None"),
        (math.nan, "must be finite"),
        (True, "must be a number, got True"),
    ], ids=["string", "none", "nan", "bool"])
    def test_names_a_bad_constant(self, bad, message):
        # Prior's weights and these constants share tables._exact's rule.
        with pytest.raises(ValueError) as raised:
            lemma1_check([1, 2, bad, 3], 2)
        assert str(raised.value) == f"constants[2] {message}"

    def test_fractional_constants(self):
        assert lemma1_check([0.5, 0.25, 1.0, 0.0, 2.0], 2).matches

    def test_cap(self, monkeypatch):
        # C(8, 4) = 70 is under the default cap and over this one.
        monkeypatch.setenv(ENUM_CAP_ENV, "10")
        with pytest.raises(EnumerationCapError):
            lemma1_check(list(range(8)), 4)


class TestNormalityCheck:
    def test_seed_determinism(self):
        science = ScienceTable(10, 10, 0, 20)
        a = normality_check(science, 20, draws=10_000, seed=3)
        b = normality_check(science, 20, draws=10_000, seed=3)
        assert a.ks_statistic == b.ks_statistic

    def test_degenerate_table_is_skipped(self):
        report = normality_check(ScienceTable(0, 0, 0, 40), 20, draws=10_000, seed=0)
        assert report.skipped
        assert report.ks_statistic is None

    def test_distance_shrinks_with_population(self):
        small = normality_check(ScienceTable(10, 10, 0, 20), 20, draws=20_000, seed=7)
        large = normality_check(ScienceTable(100, 100, 0, 200), 200, draws=20_000, seed=7)
        assert large.ks_statistic < small.ks_statistic

    def test_distances_match_the_numpy_studentization(self):
        # Values from studentizing every draw in numpy floats, before the
        # draws were tallied by monte_carlo and studentized once per table.
        for science, n_treated, draws, distance, excluded in [
            (ScienceTable(10, 10, 0, 20), 20, 20_000, 0.07625612901770273, 0),
            (ScienceTable(100, 100, 0, 200), 200, 20_000, 0.028049009601965436, 0),
            (ScienceTable(0, 3, 0, 9), 6, 12_345, 0.26979835628649607, 1139),
            (ScienceTable(20, 15, 5, 60), 50, 150_000, 0.05001486684714068, 0),
        ]:
            report = normality_check(science, n_treated, draws, seed=7)
            assert report.ks_statistic == pytest.approx(distance, abs=1e-12)
            assert report.excluded == excluded
            assert report.rng.startswith("numpy.random.Generator(PCG64(seed=7))")

    def test_no_positive_plug_in_variance_is_skipped(self):
        # Each arm holds one unit, so both observed rates are 0 or 1 and
        # V_hat is 0 on every draw.
        report = normality_check(ScienceTable(0, 1, 0, 1), 1, draws=10_000, seed=0)
        assert report.skipped
        assert report.ks_statistic is None
        assert report.excluded == 10_000
        assert "positive plug-in variance" in report.reason

    @pytest.mark.parametrize("draws,seed", [
        (10_000, -1), (10_000, None), (10_000, 1.5), (True, 0), (0, 0), (-5, 0),
    ], ids=["seed-negative", "seed-none", "seed-float", "draws-bool", "draws-0",
            "draws-negative"])
    def test_sampling_options_are_checked_on_a_degenerate_table(self, draws, seed):
        # The degenerate table is never sampled, yet its options meet
        # monte_carlo's rule, with its message, before the 10^4 floor.
        with pytest.raises((TypeError, ValueError)) as expected:
            monte_carlo(ScienceTable(3, 3, 0, 40), 20, draws, seed)
        with pytest.raises(type(expected.value)) as raised:
            normality_check(ScienceTable(0, 0, 0, 40), 20, draws, seed)
        assert str(raised.value) == str(expected.value)

    def test_requires_enough_draws(self):
        with pytest.raises(ValueError):
            normality_check(ScienceTable(10, 10, 0, 20), 20, draws=100, seed=0)

    def test_the_report_holds_its_findings_not_the_call(self):
        # The science table, N1, draws and seed are the caller's own arguments.
        assert [field.name for field in dataclasses.fields(NormalityReport)] == [
            "skipped", "ks_statistic", "excluded", "reason", "rng"
        ]
