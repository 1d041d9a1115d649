"""Domain types and feasibility regions."""

from fractions import Fraction

import numpy as np
import pytest

from causalurn import (
    IntervalEstimate,
    ObservedTable,
    ParameterPoint,
    ScienceTable,
    enumerate_assignments,
    general_support,
    in_general_support,
    monotone_support,
)


class TestScienceTable:
    @pytest.mark.parametrize(
        "cells, p1, p0, tau, s",
        [
            ((13, 10, 0, 30), Fraction(23, 53), Fraction(13, 53), Fraction(10, 53), 13),
            ((1, 2, 0, 1), Fraction(3, 4), Fraction(1, 4), Fraction(1, 2), 1),
            ((0, 0, 0, 2), Fraction(0), Fraction(0), Fraction(0), 0),
        ],
    )
    def test_margins(self, cells, p1, p0, tau, s):
        science = ScienceTable(*cells)
        assert (science.p1, science.p0, science.tau, science.n11 + science.n01) == (
            p1, p0, tau, s
        )

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

    def test_rates(self, pit):
        assert pit.n_treated == 32
        assert pit.n_control == 21
        assert pit.p1_hat == Fraction(18, 32)
        assert pit.p0_hat == Fraction(5, 21)


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
