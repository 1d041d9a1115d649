"""Domain types, feasibility regions and the input rules every module shares."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from causalurn import (
    DiscreteDistribution,
    IntervalEstimate,
    ObservedTable,
    ParameterPoint,
    ScienceTable,
    confidence_interval,
    enumerate_assignments,
    general_support,
    hpd_window,
    in_general_support,
    interval_A,
    lemma1_check,
    monotone_support,
    monte_carlo,
    normality_check,
    population_attributable_mse,
    population_tau_variance,
    pvalue_curve,
    tau_posterior,
)
from causalurn.moments import normal_quantile
from causalurn.tables import _rows


class TestScienceTable:
    @pytest.mark.parametrize(
        "cells, tau, s",
        [
            ((13, 10, 0, 30), Fraction(10, 53), 13),
            ((1, 2, 0, 1), Fraction(1, 2), 1),
            ((0, 0, 0, 2), Fraction(0), 0),
        ],
    )
    def test_margins(self, cells, tau, s):
        science = ScienceTable(*cells)
        assert (science.tau, science.n11 + science.n01) == (tau, s)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            ScienceTable(1, -1, 0, 2)

    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            ScienceTable(1, 0, 0, 0)

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            ScienceTable(1.5, 0, 0, 2)

    def test_accepts_numpy_integers(self):
        science = ScienceTable(np.int64(1), np.int64(2), np.int64(0), np.int64(1))
        assert science.total == 4
        assert type(science.n11) is int

    def test_immutable(self):
        science = ScienceTable(1, 2, 0, 1)
        with pytest.raises(AttributeError):
            science.n11 = 3


class TestObservedTable:
    def test_requires_both_arms(self):
        with pytest.raises(ValueError):
            ObservedTable(1, 1, 0, 0)
        with pytest.raises(ValueError):
            ObservedTable(0, 0, 1, 1)

    def test_arm_sizes(self, pit):
        assert pit.n_treated == 32
        assert pit.n_control == 21


@pytest.mark.parametrize("table", [ObservedTable, ScienceTable])
class TestCountValidation:
    FIELDS = ("n11", "n10", "n01", "n00")

    def test_rejects_a_bool_count(self, table):
        # operator.index would take True as 1; no count is a bool.
        with pytest.raises(TypeError) as raised:
            table(True, 1, 1, 1)
        assert str(raised.value) == "n11 must be an integer, got True"

    def test_stores_numpy_integers_as_plain_ints(self, table):
        cells = table(*(np.int64(1) for _ in self.FIELDS))
        assert all(type(getattr(cells, name)) is int for name in self.FIELDS)
        assert cells.total == 4

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("bad, error, shown", [
        (-1, ValueError, "must be nonnegative, got -1"),
        (1.5, TypeError, "must be an integer, got 1.5"),
        ("1", TypeError, "must be an integer, got '1'"),
    ], ids=["negative", "float", "string"])
    def test_rejects_each_field_with_its_message(self, table, index, bad, error, shown):
        counts = [1, 1, 1, 1]
        counts[index] = bad
        with pytest.raises(error) as raised:
            table(*counts)
        assert type(raised.value) is error
        assert str(raised.value) == f"{self.FIELDS[index]} {shown}"


@pytest.mark.parametrize("counts", [(0, 0, 1, 1), (1, 1, 0, 0)])
def test_observed_table_with_an_empty_arm_is_rejected(counts):
    with pytest.raises(ValueError, match="both arms must contain at least one unit"):
        ObservedTable(*counts)


SCIENCE = ScienceTable(1, 2, 0, 1)


# Each reader of an arm size N1, as a function of N1 for SCIENCE's N units.
ARM_READERS = {
    "population_tau_variance": lambda n1: population_tau_variance(SCIENCE, n1),
    "population_attributable_mse": lambda n1: population_attributable_mse(SCIENCE, n1),
    "enumerate_assignments": lambda n1: enumerate_assignments(SCIENCE, n1),
    "lemma1_check": lambda n1: lemma1_check(range(SCIENCE.total), n1),
    "monte_carlo": lambda n1: monte_carlo(SCIENCE, n1, 10, 0),
    "normality_check": lambda n1: normality_check(SCIENCE, n1, 10**4, 0),
}


@pytest.mark.parametrize("call", [
    lambda: ObservedTable(1, 1, 0, 0),
    lambda: population_tau_variance(SCIENCE, 0),
    lambda: enumerate_assignments(SCIENCE, SCIENCE.total),
    *(functools.partial(reader, n1) for reader in ARM_READERS.values()
      for n1 in (-1, 0, SCIENCE.total)),
], ids=["ObservedTable", "population_tau_variance", "enumerate_assignments",
        *(f"{name}({n1})" for name in ARM_READERS for n1 in (-1, 0, SCIENCE.total))])
def test_every_empty_arm_meets_one_message(call):
    # Every integer N1 outside 1..N - 1, negative ones included.
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == "both arms must contain at least one unit"


@pytest.mark.parametrize("reader", ARM_READERS.values(), ids=ARM_READERS)
@pytest.mark.parametrize("n_treated", [True, 2.5, 2.0, "2", None])
def test_every_arm_size_reader_names_an_arm_that_is_not_an_integer(reader, n_treated):
    # The count rule's type check: a bool is not one treated unit, and a
    # float does not reach the arithmetic.
    with pytest.raises(TypeError) as raised:
        reader(n_treated)
    assert str(raised.value) == f"n_treated must be an integer, got {n_treated!r}"


WORKED = ObservedTable(18, 14, 5, 16)

# Each reader of a level, with the name its message gives the value.
LEVEL_READERS = {
    "normal_quantile": (normal_quantile, "level"),
    "confidence_interval": (lambda v: confidence_interval(0.1, 0.01, v), "level"),
    "IntervalEstimate": (lambda v: IntervalEstimate(0.0, 0.0, 0.0, v, "neyman"), "level"),
    "hpd_window": (lambda v: hpd_window(DiscreteDistribution((0, 1), (1, 1)), v), "level"),
    "interval_A": (lambda v: interval_A(pvalue_curve(WORKED), v), "alpha"),
}


@pytest.mark.parametrize("reader, name", LEVEL_READERS.values(), ids=LEVEL_READERS)
@pytest.mark.parametrize("value", [0, 1, -0.5, 1.5, math.nan])
def test_every_level_reader_rejects_a_level_outside_the_unit_interval(reader, name, value):
    with pytest.raises(ValueError) as raised:
        reader(value)
    assert str(raised.value) == f"{name} must be in (0, 1), got {value}"


@pytest.mark.parametrize("reader, name", LEVEL_READERS.values(), ids=LEVEL_READERS)
@pytest.mark.parametrize("value", ["0.5", None, b"0.5", 0.5j])
def test_every_level_reader_names_a_level_that_is_not_a_number(reader, name, value):
    with pytest.raises(ValueError) as raised:
        reader(value)
    assert str(raised.value) == f"{name} must be a number, got {value!r}"


@pytest.mark.parametrize("level", [0.95, 0.75, 0.1])
def test_a_fraction_level_reads_as_the_equal_float(level):
    exact = Fraction(level)  # the float's own value, not the decimal it prints as
    dist = tau_posterior(WORKED, 0)
    assert hpd_window(dist, exact) == hpd_window(dist, level)
    curve = pvalue_curve(WORKED)
    assert interval_A(curve, exact) == interval_A(curve, level)


class TestParameterPoint:
    def test_ordering_is_lexicographic_in_n11_n10(self):
        points = [ParameterPoint(2, 0), ParameterPoint(1, 5), ParameterPoint(1, 2)]
        assert sorted(points) == [
            ParameterPoint(1, 2),
            ParameterPoint(1, 5),
            ParameterPoint(2, 0),
        ]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ParameterPoint(n11=-1, n10=0)

    @pytest.mark.parametrize("field", ["n11", "n10", "n01"])
    def test_rejects_a_bool_count(self, field):
        counts = {"n11": 1, "n10": 1, "n01": 0, field: True}
        with pytest.raises(TypeError) as raised:
            ParameterPoint(**counts)
        assert str(raised.value) == f"{field} must be an integer, got True"


class TestIntervalEstimate:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalEstimate(0.5, 0.6, 0.4, 0.95, "improved")
        with pytest.raises(ValueError):
            IntervalEstimate(0.5, 0.4, 0.6, 1.2, "improved")
        with pytest.raises(ValueError):
            IntervalEstimate(0.5, 0.4, 0.6, 0.95, "mystery")

    def test_point_outside_interval_allowed_for_inversion(self):
        # Discrete Hodges-Lehmann point sets can sit outside the hull.
        estimate = IntervalEstimate(9.0, 2.0, 8.0, 0.95, "exact-inversion")
        assert estimate.length == 6.0


class TestMonotoneSupport:
    def test_worked_example_size(self, pit):
        assert len(monotone_support(pit)) == 19 * 17 == 323

    def test_tiny_table_by_hand(self):
        # Region 1 <= n11 <= 2 <= n10 + n11 <= 3 enumerated directly.
        points = monotone_support(ObservedTable(1, 0, 1, 1))
        assert {(p.n11, p.n10) for p in points} == {(1, 1), (1, 2), (2, 0), (2, 1)}

    def test_no_successes_forces_single_row(self):
        points = monotone_support(ObservedTable(0, 3, 0, 2))
        assert all(p.n11 == 0 for p in points)
        assert len(points) == 3

    def test_cardinality_over_random_family(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n11, n10, n01, n00 = rng.integers(0, 7, size=4)
            if n11 + n10 == 0 or n01 + n00 == 0:
                continue
            obs = ObservedTable(int(n11), int(n10), int(n01), int(n00))
            support = monotone_support(obs)
            assert len(support) == (obs.n11 + 1) * (obs.n00 + 1)
            # Effect values on the support form a coarser grid.
            taus = {Fraction(p.n10, obs.total) for p in support}
            assert len(taus) <= obs.n11 + obs.n00 + 1
            assert sorted(support) == list(support)


class TestGeneralSupport:
    def test_reduces_to_monotone_at_zero(self, pit):
        assert general_support(pit, 0) == monotone_support(pit)

    def test_reduction_over_random_family(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n11, n10, n01, n00 = rng.integers(0, 6, size=4)
            if n11 + n10 == 0 or n01 + n00 == 0:
                continue
            obs = ObservedTable(int(n11), int(n10), int(n01), int(n00))
            assert general_support(obs, 0) == monotone_support(obs)

    def test_worked_example_bounds(self, pit):
        points = general_support(pit, 2)
        assert points
        for p in points:
            assert max(0, 5 - 2) <= p.n11 <= min(23, 53 - 16 - 2)

    def test_infeasible_n01_gives_empty_set(self, pit):
        # Empty is a value, not an error: sweeps skip such rows.
        assert general_support(pit, pit.n10 + pit.n01 + 1) == ()

    def test_infeasible_n01_is_empty_with_more_rows_than_len_allows(self):
        # About 10^20 rows would be too many for len(); with n01 above
        # n10_obs + n01_obs there is no run, so no row is counted at all.
        obs = ObservedTable(10**20, 1, 1, 1)
        assert _rows(obs, 10) == []
        assert general_support(obs, 10) == ()
        assert not in_general_support(obs, ParameterPoint(5, 5, 10))

    @pytest.mark.parametrize("n01", [0, 1])
    def test_matches_oracle_positive_probability(self, n01):
        # Brute force at N=3: the support is exactly the set of parameter
        # points whose science table can produce the observed data.
        obs = ObservedTable(1, 0, 1, 1)
        reachable = set()
        for sci_n11 in range(4):
            for sci_n10 in range(4 - sci_n11):
                if sci_n11 + sci_n10 + n01 > 3:
                    continue
                science = ScienceTable(sci_n11, sci_n10, n01, 3 - sci_n11 - sci_n10 - n01)
                dist = enumerate_assignments(science, 1)
                if dist.outcomes.get(obs, 0) > 0:
                    reachable.add(science.parameter_point)
        assert set(general_support(obs, n01)) == reachable

    def test_membership_predicate_agrees(self, pit):
        for n01 in (0, 2, 5, 7):
            support = set(general_support(pit, n01))
            for n11 in range(0, 26):
                for n10 in range(0, 42, 3):
                    point = ParameterPoint(n11, n10, n01)
                    assert in_general_support(pit, point) == (point in support)
