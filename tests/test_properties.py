"""Property tests of the integer kernels on generated tables.

Populations run up to 90 units unless stated below. The likelihood
properties are checked against a brute-force computation from the
reference urn sum
``likelihood._numerator`` over ``general_support``, and ``likelihood_exact``
and ``loglik_general``, the single-point view of the row runs, against it
at every point of [0, N + 1]^2 on tables of up to 40 units; the p-value
properties against a ``Fraction`` hypergeometric law built from
``math.comb``, and the walk of the p-value curve against the single-s
kernel at every s, on generated tables and on tables that reach its tie and
edge cases; ``hpd_window`` against a scan of every window. On tables of up
to 20 units the support and its membership predicate are checked against
every grid point's reference numerator. The x-run walk of the likelihood
grid, the uniform tau column sums and the closed-form uniform A weights are
checked against the reference numerator at every harmed count, and each
row's x runs and their seeds against the x whose terms are positive on it,
on tables of up to 90 units and on corner tables; the A weights also
against the oracle's way counts on every science table of up to 8 units.
The one-row query of ``tables._rows`` is its full build's row, or none, at
every n01 and n11 in [0, N + 1] on tables of up to 40 units. On drawn
windows of harmed counts, the rows of a window are the union of the
one-count rows on each diagonal, and one grid walk over the window gives
each count the one-count grid's rows and the reference numerator.
The packed sweep's column sums over a window of harmed counts are checked against the reference numerator on
drawn windows of generated tables, on corner tables, and on every table
with counts 0..5 and every window; every swept column is at most C(N, N1),
the bound behind the sweep's slot width. Two symmetries of the urn check
windows of at most 8 harmed counts on tables of up to 250 units with no
reference: swapping the arms transposes the sweep's (n10, n01) column
matrix, and swapping the arms and the outcome leaves the sweep as it is;
flipping the outcome in both arms mirrors the p-value curve, on tables of
up to 2,000 units. The run box is the set of runs
the sweep and the grid, over the window and one count at a time, step,
each once, from a positive seed over its n00_obs + 1 window points, and
each run of the box packs its seed at every count of its reach in that
count's slot and nothing else, on drawn windows of generated tables. On science
tables of up to 12 units the reference numerator, the
p-value at the true number of responders under control, the oracle's
integer moments and the moment cell estimates are checked against the
enumerated assignments, and the Monte Carlo tally against a row-wise
``np.unique``. On science tables of up to 500 units with one arm of at
most 3 units, the grid's numerator at the science point is checked against
the oracle's way count of each observed table the design reaches.
The closed-form population variances are checked against the ``Fraction``
formulas they replaced, on science tables of up to 400 units. The plug-in
variances, which evaluate the same closed form on integer margins scaled by
N1 N0, the classic variance, tau_hat, every row of a sensitivity sweep over
n01 = 0..N and the prediction intervals are checked against those formulas
in the rates p1_hat = n11_obs / N1 and p0_hat = n01_obs / N0, which the
tests state themselves, on observed tables of up to 90 units, about half of
them with a one-unit arm; ``n01_bounds`` against the same rates on tables
with counts up to 10^24. The CLI's JSON writer is checked against
``json.dumps(indent=2)`` on generated documents, and every JSON command
against a ``json.dumps`` that raises.
"""

import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalurn import (
    LOG_ZERO,
    UNIFORM,
    DiscreteDistribution,
    InfeasibleError,
    IntervalEstimate,
    ObservedTable,
    ParameterPoint,
    Prior,
    ScienceTable,
    a_posterior,
    classic_neyman_variance,
    enumerate_assignments,
    general_support,
    hl_estimate,
    hpd_window,
    improved_variance,
    in_general_support,
    interval_A,
    lemma1_check,
    likelihood,
    likelihood_exact,
    loglik_general,
    mle,
    moment_cells,
    monte_carlo,
    n01_bounds,
    neyman_predict,
    neyman_variance,
    population_attributable_mse,
    population_tau_variance,
    posterior_points,
    pvalue_curve,
    pvalue_exact,
    sensitivity_sweep,
    sensitivity_variance,
    standardized_pvalues,
    tau_hat,
    tau_posterior,
    tau_posterior_sweep,
)
from causalurn import cli
from causalurn.attributable import _pvalue_numerator
from causalurn.cli import _level_label
from causalurn.moments import ASSUMPTIONS, normal_quantile
from causalurn.oracle import AssignmentDistribution, _compose
from causalurn.tables import _rows, _run_box
from causalurn.verify import science_tables_up_to

PROPERTY = settings(max_examples=30, deadline=None)
ORACLE = settings(max_examples=100, deadline=None)


@st.composite
def tables(draw, min_total=2, max_total=90, one_unit_arm=False):
    """An observed table with min_total <= N <= max_total; with
    ``one_unit_arm``, one of its arms holds a single unit."""
    total = draw(st.integers(min_total, max_total))
    n_treated = draw(st.sampled_from((1, total - 1)) if one_unit_arm
                     else st.integers(1, total - 1))
    n11 = draw(st.integers(0, n_treated))
    n01 = draw(st.integers(0, total - n_treated))
    return ObservedTable(n11, n_treated - n11, n01, total - n_treated - n01)


@st.composite
def designs(draw):
    """An observed table with 4 <= N <= 90 and a feasible harmed count."""
    obs = draw(tables(min_total=4))
    harmed = draw(st.integers(0, min(3, obs.n10 + obs.n01)))
    return obs, harmed


def _pushforward(dist, fn) -> dict:
    sums = {}
    for point, mass in zip(dist.support, dist.mass):
        if mass:
            sums[fn(point)] = sums.get(fn(point), 0) + mass
    return sums


@PROPERTY
@given(tables(max_total=20))
def test_support_is_the_positive_likelihood_grid(obs):
    # Every (n11, n10) in [0, N]^2, at every n01 up to one past the largest
    # feasible value: the support, its rows and the membership predicate
    # all name exactly the points with a positive likelihood numerator.
    total = obs.total
    for n01 in range(obs.n10 + obs.n01 + 2):
        positive = []
        for n11 in range(total + 1):
            for n10 in range(total + 1):
                inside = likelihood._numerator(obs, n11, n10, n01) > 0
                assert in_general_support(obs, ParameterPoint(n11, n10, n01)) == inside
                if inside:
                    positive.append((n11, n10))
        assert [(p.n11, p.n10) for p in general_support(obs, n01)] == positive


def _reference_likelihood(obs, point) -> Fraction:
    """The likelihood at ``point`` from the reference urn sum ``_numerator``."""
    numerator = likelihood._numerator(obs, point.n11, point.n10, point.n01)
    return Fraction(numerator, math.comb(obs.total, obs.n_treated))


@PROPERTY
@given(tables(max_total=40), st.data())
def test_point_likelihood_is_the_reference_sum(obs, data):
    # Every (n11, n10) in [0, N + 1]^2 at a drawn harmed count in [0, N + 1],
    # on and off the support: likelihood_exact, the point view of the row
    # runs the walks step, equals the plain urn sum, and loglik_general logs it.
    n01 = data.draw(st.integers(0, obs.total + 1), label="n01")
    whole = math.comb(obs.total, obs.n_treated)
    for n11 in range(obs.total + 2):
        for n10 in range(obs.total + 2):
            point = ParameterPoint(n11, n10, n01)
            numerator = likelihood._numerator(obs, n11, n10, n01)
            assert likelihood_exact(obs, point) == Fraction(numerator, whole)
            assert loglik_general(obs, point) == (
                math.log(numerator) - math.log(whole) if numerator else LOG_ZERO)


def _pointwise_rows(obs, n01) -> list:
    """``(n11, n10, _numerator)`` at every point of the support rows."""
    return [
        (n11, n10, likelihood._numerator(obs, n11, n10, n01))
        for n11, n10s, _ in _rows(obs, n01)
        for n10 in n10s
    ]


def _pointwise_columns(obs, n01) -> dict:
    """``{n10: the numerators at n10 summed over n11}`` on the support."""
    columns = {}
    for _, n10, numerator in _pointwise_rows(obs, n01):
        columns[n10] = columns.get(n10, 0) + numerator
    return columns


def _assert_empty_support_raises(obs, n01):
    # The grid's one-count readers raise on an empty support.
    for reader in (mle, posterior_points):
        with pytest.raises(InfeasibleError):
            reader(obs, n01)


def _assert_grid_walk_is_the_pointwise_kernel(obs):
    # Every row _grid gives holds _numerator at each of its points, at every
    # harmed count up to one past the largest feasible one.
    for n01 in range(obs.n10 + obs.n01 + 2):
        expected = _pointwise_rows(obs, n01)
        grid = list(likelihood._grid(obs, range(n01, n01 + 1)))
        if not expected:
            assert grid == []
            _assert_empty_support_raises(obs, n01)
        else:
            rows = [(n11, n10s) for n11, n10s, _ in _rows(obs, n01)]
            assert {row[0] for row in grid} == {n01}
            walked = [row[1:] for row in grid]
            assert [(n11, n10s) for n11, n10s, _ in walked] == rows
            assert [
                (n11, n10, numerator)
                for n11, n10s, numerators in walked
                for n10, numerator in zip(n10s, numerators, strict=True)
            ] == expected


def _assert_uniform_tau_is_the_pointwise_pushforward(obs):
    # The column sums of tau_posterior are the pointwise numerators summed
    # over n11, at every feasible harmed count.
    for n01 in range(obs.n10 + obs.n01 + 1):
        columns = _pointwise_columns(obs, n01)
        tau = tau_posterior(obs, n01)
        assert tau.support == tuple(Fraction(n10 - n01, obs.total) for n10 in sorted(columns))
        assert tau.weights == tuple(columns[n10] for n10 in sorted(columns))


def _x_windows(obs, n01) -> list:
    """``(n11, n10s, x, window)`` for every x in 0..n11 of every support row:
    the n10 of the row where the x term of the sum is positive."""
    total = obs.total
    windows = []
    for n11, n10s, _ in _rows(obs, n01):
        for x in range(n11 + 1):
            def positive(n10):
                c, h = obs.n10 + obs.n01 + x - n01 - n11, n01 + n11 - obs.n01 - x
                n00 = total - n11 - n10 - n01
                return 0 <= obs.n11 - x <= n10 and 0 <= h <= n01 and 0 <= c <= n00
            windows.append((n11, n10s, x, [n10 for n10 in n10s if positive(n10)]))
    return windows


def _row_seeds(obs, n01, n11) -> dict:
    """``{x: a_x}`` over the runs ``tables._rows`` puts on row n11, each seed
    from ``likelihood._seed``: what every one-count numerator reads."""
    return {x: likelihood._seed(obs, n11 + n01, x, n01)
            for _, _, xs in _rows(obs, n01, range(n11, n11 + 1)) for x in xs}


def _assert_x_runs_are_the_positive_windows(obs):
    # Each row walks exactly the x whose terms are positive somewhere on it,
    # each seeded with a_x = C(n11, x) C(n01, n01 + n11 - n01_obs - x), and
    # each such x is positive on one contiguous run of n10.
    for n01 in range(obs.n10 + obs.n01 + 1):
        walked = {}
        for n11, n10s, x, window in _x_windows(obs, n01):
            walked.setdefault(n11, _row_seeds(obs, n01, n11))
            assert (x in walked[n11]) == bool(window)
            if window:
                assert window == list(range(window[0], window[-1] + 1))
                seed = math.comb(n11, x) * math.comb(n01, n01 + n11 - obs.n01 - x)
                assert walked[n11][x] == seed


@PROPERTY
@given(tables())
def test_grid_walk_is_the_pointwise_kernel(obs):
    _assert_grid_walk_is_the_pointwise_kernel(obs)


@PROPERTY
@given(tables())
def test_uniform_tau_is_the_pushforward_of_the_pointwise_kernel(obs):
    _assert_uniform_tau_is_the_pointwise_pushforward(obs)


@PROPERTY
@given(tables())
def test_x_runs_are_the_positive_windows(obs):
    _assert_x_runs_are_the_positive_windows(obs)


@PROPERTY
@given(tables(max_total=40))
def test_one_row_query_is_the_full_builds_row(obs):
    # The point view and in_general_support ask _rows for one row, _grid and
    # _row_sums for every row: both must state the same row, or none.
    for n01 in range(obs.total + 2):
        full = {row[0]: row for row in _rows(obs, n01)}
        for n11 in range(obs.total + 2):
            one = _rows(obs, n01, range(n11, n11 + 1))
            assert one == ([full[n11]] if n11 in full else [])


# Tables whose likelihood walk meets its corner cases at n01 = 0 and at
# n01 = n10_obs + n01_obs: one-unit arms, arms of only successes or only
# failures, rows of one point, and x runs of one point or of none (an x
# positive in its other binomials but on no point of the row).
GRID_CORNERS = [
    ObservedTable(1, 0, 0, 1), ObservedTable(0, 1, 1, 0), ObservedTable(1, 0, 1, 0),
    ObservedTable(0, 1, 0, 1), ObservedTable(1, 0, 3, 4), ObservedTable(0, 1, 4, 3),
    ObservedTable(3, 4, 1, 0), ObservedTable(4, 3, 0, 1), ObservedTable(4, 0, 0, 4),
    ObservedTable(0, 4, 4, 0), ObservedTable(5, 0, 4, 0), ObservedTable(2, 2, 1, 3),
    ObservedTable(6, 1, 2, 5), ObservedTable(18, 14, 5, 16),
]


def test_grid_corners_reach_their_cases():
    one_unit_arm = one_point_row = one_point_run = empty_run = False
    for obs in GRID_CORNERS:
        one_unit_arm |= 1 in (obs.n_treated, obs.n_control)
        for n01 in range(obs.n10 + obs.n01 + 1):
            one_point_row |= any(len(n10s) == 1 for _, n10s, _ in _rows(obs, n01))
            for n11, _, x, window in _x_windows(obs, n01):
                one_point_run |= len(window) == 1
                empty_run |= not window and 0 <= n01 + n11 - obs.n01 - x <= n01 and x <= obs.n11
    assert one_unit_arm and one_point_row and one_point_run and empty_run


@pytest.mark.parametrize("obs", GRID_CORNERS, ids=repr)
def test_grid_walk_matches_the_kernel_on_corner_tables(obs):
    _assert_grid_walk_is_the_pointwise_kernel(obs)
    _assert_uniform_tau_is_the_pointwise_pushforward(obs)
    _assert_x_runs_are_the_positive_windows(obs)


def _assert_sweep_is_the_pointwise_columns(obs, n01s):
    # One packed sweep over n01s gives each harmed count its pointwise
    # columns, and no distribution where the count is infeasible.
    swept = likelihood._columns(obs, n01s)
    taus = tau_posterior_sweep(obs, n01s)
    for n01, columns, tau in zip(n01s, swept, taus, strict=True):
        expected = _pointwise_columns(obs, n01)
        assert {n10: w for n10, w in enumerate(columns) if w} == expected
        if not expected:
            assert tau is None
        else:
            assert tau.support == tuple(Fraction(n10 - n01, obs.total) for n10 in sorted(expected))
            assert tau.weights == tuple(expected[n10] for n10 in sorted(expected))


@st.composite
def swept_tables(draw):
    """A table and a window lo <= hi <= N of harmed counts, which may start
    or end past the largest feasible count n10_obs + n01_obs."""
    obs = draw(tables())
    hi = draw(st.integers(0, obs.total))
    return obs, range(draw(st.integers(0, hi)), hi + 1)


@PROPERTY
@given(swept_tables())
def test_sweep_is_the_pointwise_columns(swept):
    _assert_sweep_is_the_pointwise_columns(*swept)


@PROPERTY
@given(tables())
def test_every_swept_column_is_at_most_the_assignment_count(obs):
    # The sweep's slot width, the bit length of C(N, N1), rests on this bound:
    # for fixed n10 and n01 an assignment yields the table for at most one n11.
    bound = math.comb(obs.total, obs.n_treated)
    for columns in likelihood._columns(obs, range(obs.total + 1)):
        assert max(columns) <= bound


@st.composite
def short_sweeps(draw):
    """A table of up to 250 units and a window of at most 8 harmed counts
    that starts at a feasible count and may run past the largest one."""
    obs = draw(tables(max_total=250))
    lo = draw(st.integers(0, obs.n10 + obs.n01))
    return obs, range(lo, min(obs.total, lo + draw(st.integers(0, 7))) + 1)


@st.composite
def transposed_sweeps(draw):
    """A short sweep and a count n10 of helped units that is feasible, or one
    past feasible, as the harmed count of the table with its arms swapped."""
    obs, n01s = draw(short_sweeps())
    return obs, n01s, draw(st.integers(0, min(obs.total, obs.n11 + obs.n00 + 1)))


def _entry(columns, index):
    # A column list ends at n10 = n11_obs + n00_obs; an index past it reads 0.
    return columns[index] if index < len(columns) else 0


@ORACLE
@given(transposed_sweeps())
@example((ObservedTable(0, 1, 0, 1), range(0, 3), 0))
def test_sweep_is_its_arm_swap_transposed(swept):
    # Swapping the arms swaps the unit types 10 and 01: the column sum at
    # (n10, n01) of obs is the one at (n01, n10) of obs' = (n01_obs, n00_obs,
    # n11_obs, n10_obs), where n10 is the harmed count of one swept list.
    obs, n01s, n10 = swept
    swapped = ObservedTable(obs.n01, obs.n00, obs.n11, obs.n10)
    column, = likelihood._columns(swapped, range(n10, n10 + 1))
    for n01, columns in zip(n01s, likelihood._columns(obs, n01s), strict=True):
        assert _entry(columns, n10) == _entry(column, n01)


@ORACLE
@given(short_sweeps())
@example((ObservedTable(0, 1, 0, 1), range(0, 3)))
def test_sweep_is_its_double_flip(swept):
    # Swapping the arms and flipping the outcome swaps the unit types 11 and
    # 00 and keeps 10 and 01, so the sums over n11 of obs'' = (n00_obs,
    # n01_obs, n10_obs, n11_obs) are those of obs.
    obs, n01s = swept
    flipped = ObservedTable(obs.n00, obs.n01, obs.n10, obs.n11)
    assert list(likelihood._columns(flipped, n01s)) == list(likelihood._columns(obs, n01s))


@PROPERTY
@given(swept_tables())
@example((ObservedTable(2, 1, 1, 2), range(0, 4)))
def test_a_pack_holds_each_seed_of_its_runs_reach_in_its_slot(swept):
    # likelihood._pack, the one statement of a run's reach: over the window
    # lo..hi, run (s, x) with k = s - n01_obs - x packs exactly its seeds at
    # max(lo, k)..min(hi, k + n01_obs), the first in slot 0, and returns that
    # first count; every run of the window's box is checked.
    obs, n01s = swept
    lo, hi, width, mask = likelihood._slots(obs, n01s)
    ks, xs = _run_box(obs, lo, hi)
    for k, x in itertools.product(ks, xs):
        s, reach = k + obs.n01 + x, range(max(lo, k), min(hi, k + obs.n01) + 1)
        seeds, first = likelihood._pack(obs, s, x, lo, hi, width)
        assert first == reach[0]
        assert [seeds >> width * (n01 - first) & mask for n01 in reach] == [
            likelihood._seed(obs, s, x, n01) for n01 in reach]
        assert seeds >> width * len(reach) == 0


def _recorded_runs(walk) -> list:
    """``(s, x, seed, points)`` per ``_add_run`` call of ``walk()``, points the
    number of entries the call changed: its inner-sum terms."""
    runs, add_run = [], likelihood._add_run

    def recorded(obs, s, x, seed, into, base):
        before = list(into)
        add_run(obs, s, x, seed, into, base)
        runs.append((s, x, seed, sum(a != b for a, b in zip(before, into, strict=True))))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(likelihood, "_add_run", recorded)
        walk()
    return runs


def _positive_runs(obs, n01s) -> set:
    """The (s, x) whose seed C(s - n01, x) C(n01, k), k = s - n01_obs - x, is
    positive at some n01 of ``n01s`` and whose window has c = n10_obs - k >= 0."""
    return {
        (s, x) for n01 in n01s for s in range(n01, obs.total + 1) for x in range(obs.n11 + 1)
        if 0 <= s - obs.n01 - x <= obs.n10
        and math.comb(s - n01, x) * math.comb(n01, s - obs.n01 - x) > 0
    }


def _assert_walk_is_the_run_box(obs, n01s, walk):
    # The walk steps each run of the box once, from a positive seed, over its
    # n00_obs + 1 window points, and the box's runs are the positive ones.
    ks, xs = _run_box(obs, n01s[0], n01s[-1])
    runs = _recorded_runs(walk)
    assert len(runs) == len(ks) * len(xs)
    assert {(s, x) for s, x, _, _ in runs} == _positive_runs(obs, n01s)
    assert len({(s, x) for s, x, _, _ in runs}) == len(runs)
    assert all(seed > 0 and points == obs.n00 + 1 for _, _, seed, points in runs)


@PROPERTY
@given(swept_tables())
def test_the_run_box_is_the_runs_the_walks_step(swept):
    # The box is the run set of the sweep and of the grid over the window, and,
    # one count at a time, the grid's.
    obs, n01s = swept
    _assert_walk_is_the_run_box(obs, n01s, lambda: likelihood._columns(obs, n01s))
    _assert_walk_is_the_run_box(obs, n01s, lambda: list(likelihood._grid(obs, n01s)))
    for n01 in n01s:
        if not _run_box(obs, n01, n01)[0]:
            _assert_empty_support_raises(obs, n01)
        _assert_walk_is_the_run_box(obs, range(n01, n01 + 1),
                                    lambda: list(likelihood._grid(obs, range(n01, n01 + 1))))


@PROPERTY
@given(swept_tables())
def test_range_grid_is_the_one_count_grid_and_the_pointwise_kernel(swept):
    # One walk over a window gives each harmed count the rows of the one-count
    # walk, _numerator at each of their points, and no row where the count's
    # support is empty; there the one-count readers raise.
    obs, n01s = swept
    counts = {n01: [] for n01 in n01s}
    for n01, *row in likelihood._grid(obs, n01s):
        counts[n01].append(tuple(row))
    for n01, rows in counts.items():
        expected = _pointwise_rows(obs, n01)
        assert [
            (n11, n10, numerator)
            for n11, n10s, numerators in rows
            for n10, numerator in zip(n10s, numerators, strict=True)
        ] == expected
        assert rows == [row[1:] for row in likelihood._grid(obs, range(n01, n01 + 1))]
        if not expected:
            _assert_empty_support_raises(obs, n01)


@PROPERTY
@given(swept_tables())
def test_a_range_stream_walks_one_diagonal_before_its_first_row(swept):
    # The grid walks as it is read: nothing at the call, and its first row
    # after the _add_run calls of the first diagonal of the window's run box
    # alone, one per run of it.
    obs, n01s = swept
    calls, add_run = [], likelihood._add_run

    def counted(obs, s, *rest):
        calls.append(s)
        return add_run(obs, s, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(likelihood, "_add_run", counted)
        stream = likelihood._grid(obs, n01s)
        assert calls == []
        first = next(stream, None)
    diagonals = _rows(obs, n01s[0], last=n01s[-1])
    if not diagonals:
        assert (first, calls) == (None, [])
        return
    n11, _, xs = diagonals[0]
    assert calls == [n11 + n01s[0]] * len(xs)
    assert first[0] + first[1] == n11 + n01s[0]  # its n01 + n11 is the diagonal's s


@PROPERTY
@given(swept_tables())
def test_range_rows_are_the_union_of_the_one_count_rows(swept):
    # A row of _rows over a window is a diagonal s = n11 + n01s[0] of its run
    # box: its x and n10 are those of the one-count rows on s at every count
    # of the window, and the rows go by ascending n11.
    obs, n01s = swept
    diagonals = {}
    for n01 in n01s:
        for n11, n10s, xs in _rows(obs, n01):
            runs, points = diagonals.setdefault(n11 + n01, (set(), set()))
            runs.update(xs)
            points.update(n10s)
    rows = _rows(obs, n01s[0], last=n01s[-1])
    assert [n11 + n01s[0] for n11, _, _ in rows] == sorted(diagonals)
    assert {n11 + n01s[0]: (set(xs), set(n10s)) for n11, n10s, xs in rows} == diagonals


@pytest.mark.parametrize("obs", GRID_CORNERS, ids=repr)
def test_sweep_matches_the_kernel_on_corner_tables(obs):
    # Every window whose ends are among 0, 1, the largest feasible count,
    # its neighbours and N.
    feasible = obs.n10 + obs.n01
    ends = sorted({0, 1, feasible - 1, feasible, feasible + 1, obs.total} & set(range(obs.total + 1)))
    for hi in ends:
        for lo in ends[:ends.index(hi) + 1]:
            _assert_sweep_is_the_pointwise_columns(obs, range(lo, hi + 1))


def test_sweep_is_the_pointwise_columns_on_every_small_table_and_window():
    # Every table with counts 0..5 and every window lo <= hi <= N; each
    # count's pointwise columns are built once per table.
    for counts in itertools.product(range(6), repeat=4):
        if counts[0] + counts[1] == 0 or counts[2] + counts[3] == 0:
            continue  # an empty arm
        obs = ObservedTable(*counts)
        expected = [_pointwise_columns(obs, n01) for n01 in range(obs.total + 1)]
        for hi in range(obs.total + 1):
            for lo in range(hi + 1):
                swept = likelihood._columns(obs, range(lo, hi + 1))
                assert [
                    {n10: w for n10, w in enumerate(columns) if w} for columns in swept
                ] == expected[lo:hi + 1], (counts, lo, hi)


@PROPERTY
@given(tables())
def test_uniform_a_weights_are_the_pointwise_row_sums(obs):
    for n01 in range(obs.n10 + obs.n01 + 2):
        sums = {}
        for n11, _, numerator in _pointwise_rows(obs, n01):
            sums[n11] = sums.get(n11, 0) + numerator
        if not sums:
            with pytest.raises(InfeasibleError):
                a_posterior(obs, n01)
        else:
            # A = n11_obs + n01_obs - n01 - n11 ascends as n11 descends.
            assert a_posterior(obs, n01).weights == tuple(sums[n] for n in sorted(sums)[::-1])


@PROPERTY
@given(designs())
def test_mle_is_the_brute_force_argmax(design):
    obs, harmed = design
    values = {p: _reference_likelihood(obs, p) for p in general_support(obs, harmed)}
    best = max(values.values())
    ties = tuple(p for p, value in values.items() if value == best)
    assert mle(obs, harmed).points == ties


@PROPERTY
@given(designs(), st.data())
def test_posteriors_are_the_normalized_likelihood(design, data):
    obs, harmed = design
    support = general_support(obs, harmed)
    weights, prior = dict.fromkeys(support, 1), UNIFORM
    if data.draw(st.booleans(), label="table prior"):
        chosen = data.draw(
            st.lists(st.sampled_from(support), min_size=1, max_size=5, unique=True)
        )
        weight = st.fractions(min_value=Fraction(1, 12), max_value=10, max_denominator=12)
        weights = {p: data.draw(weight) for p in chosen}
        prior = Prior({(p.n11, p.n10): w for p, w in weights.items()})
    raw = {p: weights.get(p, 0) * _reference_likelihood(obs, p) for p in support}
    total = sum(raw.values())

    points = posterior_points(obs, harmed, prior)
    assert points.support == support
    assert points.mass == tuple(raw[p] / total for p in support)

    tau = tau_posterior(obs, harmed, prior)
    expected = _pushforward(points, lambda p: Fraction(p.n10 - harmed, obs.total))
    assert dict(zip(tau.support, tau.mass)) == expected

    a = a_posterior(obs, harmed, prior)
    base = obs.n11 + obs.n01 - harmed
    assert dict(zip(a.support, a.mass)) == _pushforward(points, lambda p: base - p.n11)


def _reference_pvalues(obs) -> list:
    """p(s) for s in 0..N from the hypergeometric law of the control
    successes, each mass a Fraction."""
    total, draws = obs.total, obs.n_control
    curve = []
    for s in range(total + 1):
        law = [
            Fraction(math.comb(s, h) * math.comb(total - s, draws - h),
                     math.comb(total, draws))
            for h in range(min(s, draws) + 1)
        ]
        observed = law[obs.n01] if obs.n01 < len(law) else 0
        curve.append(sum(m for m in law if m <= observed) if observed else Fraction(0))
    return curve


@PROPERTY
@given(tables())
def test_pvalue_curve_matches_the_fraction_reference(obs):
    reference = _reference_pvalues(obs)
    assert [pvalue_exact(obs, s) for s in range(obs.total + 1)] == reference
    # The reference kernel at every s, those off the curve (p = 0) included.
    whole = math.comb(obs.total, obs.n_control)
    assert [Fraction(_pvalue_numerator(obs, s), whole) for s in range(obs.total + 1)] == reference

    # The curve holds every positive p(s), indexed by A = base - s.
    base = obs.n11 + obs.n01
    curve = pvalue_curve(obs)
    assert curve.values == tuple(range(-obs.n10, obs.n11 + 1))
    assert curve.denominator == math.comb(obs.total, obs.n_control)
    assert {
        base - a: Fraction(num, curve.denominator)
        for a, num in zip(curve.values, curve.numerators)
    } == {s: p for s, p in enumerate(reference) if p > 0}

    best = max(reference)
    assert hl_estimate(curve) == tuple(
        sorted(base - s for s, p in enumerate(reference) if p == best)
    )
    for alpha in (0.01, 0.05, 0.11, 0.5):
        assert interval_A(curve, alpha)[1] == tuple(
            sorted(base - s for s, p in enumerate(reference) if p > alpha)
        )

    standardized = standardized_pvalues(curve)
    raw = [reference[base - a] for a in range(obs.n11 + 1)]
    assert standardized.support == tuple(range(obs.n11 + 1))
    assert standardized.mass == tuple(p / sum(raw) for p in raw)


# Tables whose walk meets its corner cases: a tie at a two-point mode
# (C(1, 0) C(3, 2) = C(1, 1) C(3, 1) at s = 1), a tie between h_obs and a
# count two away (C(4, h)^2 at s = 4), h_obs at the bottom (n01 = 0) or the
# top (n01 = N0) of every row, one-unit arms, and arms of only successes or
# only failures.
WALK_CORNERS = [
    ObservedTable(1, 1, 1, 1), ObservedTable(2, 0, 0, 2), ObservedTable(0, 2, 2, 0),
    ObservedTable(2, 2, 1, 3), ObservedTable(2, 2, 3, 1),
    ObservedTable(5, 3, 0, 9), ObservedTable(5, 3, 9, 0),
    ObservedTable(1, 0, 0, 1), ObservedTable(0, 1, 1, 0), ObservedTable(1, 0, 4, 6),
    ObservedTable(0, 1, 4, 6), ObservedTable(4, 6, 1, 0), ObservedTable(4, 6, 0, 1),
    ObservedTable(7, 0, 3, 5), ObservedTable(0, 7, 3, 5), ObservedTable(3, 5, 7, 0),
    ObservedTable(3, 5, 0, 7), ObservedTable(6, 0, 0, 6), ObservedTable(0, 6, 6, 0),
]


def _assert_walk_matches_the_single_s_kernel(obs):
    # The walk's numerator at every s in [n01_obs, n01_obs + N1] is the one
    # the row rebuild of _pvalue_numerator gives.
    base = obs.n11 + obs.n01
    curve = pvalue_curve(obs)
    steps = [base - a for a in curve.values]
    assert sorted(steps) == list(range(obs.n01, obs.n01 + obs.n_treated + 1))
    assert list(curve.numerators) == [_pvalue_numerator(obs, s) for s in steps]


@pytest.mark.parametrize("obs", WALK_CORNERS, ids=repr)
def test_pvalue_walk_matches_the_kernel_on_corner_tables(obs):
    _assert_walk_matches_the_single_s_kernel(obs)


@ORACLE
@given(tables())
def test_pvalue_walk_matches_the_kernel(obs):
    _assert_walk_matches_the_single_s_kernel(obs)


@ORACLE
@given(tables(max_total=2000))
def test_pvalue_curve_is_its_outcome_flip_mirrored(obs):
    # Flipping the outcome in both arms maps s to N - s and A to -A: the curve
    # of (n10_obs, n11_obs, n00_obs, n01_obs) is obs's read backwards. The
    # single-s reference costs O(N0) per s, so this reaches tables it cannot.
    curve = pvalue_curve(obs)
    flipped = pvalue_curve(ObservedTable(obs.n10, obs.n11, obs.n00, obs.n01))
    assert flipped.values == tuple(-a for a in reversed(curve.values))
    assert flipped.numerators == tuple(reversed(curve.numerators))
    assert flipped.denominator == curve.denominator


def _brute_force_hpd(dist, level):
    """Apply the documented rules of ``hpd_window`` in order to every window."""
    mass, size = dist.mass, len(dist.mass)
    mode = mass.index(max(mass))
    cumulative = [0, *itertools.accumulate(mass)]  # exact, so each difference is the window's sum
    windows = [(lo, hi, cumulative[hi + 1] - cumulative[lo])
               for lo in range(size) for hi in range(lo, size)]
    windows = [w for w in windows if w[2] >= level]
    for rule in (
        lambda w: w[1] - w[0],                  # minimal width
        lambda w: -w[2],                        # then maximal mass
        lambda w: abs(w[0] + w[1] - 2 * mode),  # then most symmetric around the mode
        lambda w: w[0],                         # then leftmost
    ):
        best = min(rule(w) for w in windows)
        windows = [w for w in windows if rule(w) == best]
    (lo, hi, window_mass), = windows
    return dist.support[lo], dist.support[hi], window_mass


LEVELS = st.one_of(
    st.sampled_from([1e-9, 0.5, 0.8, 0.9, 0.95, 0.99, 0.9999999999999999]), st.floats(0.01, 0.99)
)


@PROPERTY
@given(designs(), st.sampled_from([tau_posterior, a_posterior]), LEVELS)
def test_hpd_window_follows_its_rules(design, posterior, level):
    obs, harmed = design
    dist = posterior(obs, harmed)
    assert hpd_window(dist, level) == _brute_force_hpd(dist, level)


ZERO_RUN = st.integers(0, 12).map(lambda n: [0] * n)
SMALL_WEIGHTS = st.lists(st.integers(0, 4), max_size=12)


@settings(max_examples=500, deadline=None)
@given(st.tuples(ZERO_RUN, SMALL_WEIGHTS, ZERO_RUN, SMALL_WEIGHTS, ZERO_RUN)
       .map(lambda runs: [w for run in runs for w in run]).filter(any),
       LEVELS, st.integers(1, 60))
@example(weights=[1, 1, 3, 1], level=0.8, denominator=1)  # symmetry settles equal masses
def test_hpd_window_tie_rules_on_small_integer_weights(weights, level, denominator):
    # Unimodal posteriors rarely put the mass and symmetry rules in
    # conflict; small integer weights make such ties common. Runs of zeros at
    # either end and in the middle, up to 60 weights in all, stop the window's
    # two scans at empty points, and the values lie over a denominator.
    dist = DiscreteDistribution(
        values=tuple(range(len(weights))), weights=tuple(weights), denominator=denominator
    )
    assert hpd_window(dist, level) == _brute_force_hpd(dist, level)


@st.composite
def sciences(draw, max_total=12):
    """A science table with 2 <= N <= max_total."""
    total = draw(st.integers(2, max_total))
    n11 = draw(st.integers(0, total))
    n10 = draw(st.integers(0, total - n11))
    n01 = draw(st.integers(0, total - n11 - n10))
    return ScienceTable(n11, n10, n01, total - n11 - n10 - n01)


def _ways(science, types) -> int:
    counts = (science.n11, science.n10, science.n01, science.n00)
    return math.prod(math.comb(c, x) for c, x in zip(counts, types))


def test_oracle_compositions_tally_the_labelled_assignments():
    # Units labelled by type, in the order 11, 10, 01, 00: each treated set
    # of every science table with N <= 7 counts once toward its type
    # composition, and the oracle lists those counts in lexicographic order.
    # It counts once toward its observed table as well: treated units of
    # types 11 and 10 and control units of types 11 and 01 respond, and the
    # oracle's one table tally, keyed by (n11_obs, n01_obs), holds those counts.
    for science in science_tables_up_to(7):
        counts = (science.n11, science.n10, science.n01, science.n00)
        types = [t for t, count in enumerate(counts) for _ in range(count)]
        control_responders = science.n11 + science.n01  # when every unit is a control
        for n_treated in range(1, science.total):
            tally, observed = Counter(), Counter()
            for treated in itertools.combinations(range(science.total), n_treated):
                tally[tuple(sum(types[u] == t for u in treated) for t in range(4))] += 1
                n11 = sum(types[u] in (0, 1) for u in treated)
                n01 = control_responders - sum(types[u] in (0, 2) for u in treated)
                observed[n11, n01] += 1
            expected = [(*composition, ways) for composition, ways in sorted(tally.items())]
            dist = enumerate_assignments(science, n_treated)
            assert list(dist.compositions) == expected
            assert dist._law()[0] == observed


@ORACLE
@given(sciences())
def test_kernel_numerator_is_the_oracle_way_count(science):
    total = science.total
    for n_treated in range(1, total):
        ways = {}
        for record in enumerate_assignments(science, n_treated).records:
            ways[record.observed] = (
                ways.get(record.observed, 0) + _ways(science, record.treated_types)
            )
        n_control = total - n_treated
        for n11 in range(n_treated + 1):
            for n01 in range(n_control + 1):
                obs = ObservedTable(n11, n_treated - n11, n01, n_control - n01)
                numerator = likelihood._numerator(
                    obs, science.n11, science.n10, science.n01
                )
                assert numerator == ways.get(obs, 0)


@st.composite
def small_arm_designs(draw):
    """A science table with 4 <= N <= 500 and a treatment arm of N1 in
    {1, 2, 3, N - 3, N - 2, N - 1}: one arm holds at most 3 units, so the
    design has at most 20 type compositions at any N."""
    total = draw(st.integers(4, 500))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=3, max_size=3)))
    counts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    return ScienceTable(*counts), draw(st.sampled_from((1, 2, 3, total - 3, total - 2, total - 1)))


@settings(max_examples=400, deadline=None)
@given(small_arm_designs())
@example((ScienceTable(0, 0, 0, 4), 1))
@example((ScienceTable(200, 100, 150, 50), 497))
def test_grid_numerator_is_the_small_arm_oracle_way_count(design):
    # Every observed table the design reaches: the oracle's summed way count
    # equals the grid's numerator at the science point, on the row of the
    # science table's harmed count.
    science, n_treated = design
    n_control = science.total - n_treated
    tally = AssignmentDistribution(science, n_treated, _compose(science, n_treated),
                                   math.comb(science.total, n_treated))._law()[0]
    for (n11, n01), ways in tally.items():
        obs = ObservedTable(n11, n_treated - n11, n01, n_control - n01)
        numerators = {
            (row_n11, n10): numerator
            for _, row_n11, n10s, row in likelihood._grid(
                obs, range(science.n01, science.n01 + 1), (science.n11,))
            for n10, numerator in zip(n10s, row)
        }
        assert numerators.get((science.n11, science.n10), 0) == ways


def test_uniform_a_weights_are_the_oracle_way_counts():
    # Every observed table of every science table with N <= 8: the uniform
    # A weight at n11 is the oracle's way count of that table, summed over
    # the science tables that share (n11, n01).
    for total in range(2, 9):
        for n_treated in range(1, total):
            n_control = total - n_treated
            for n11 in range(total + 1):
                for n01 in range(total - n11 + 1):
                    ways = {}
                    for n10 in range(total - n11 - n01 + 1):
                        science = ScienceTable(n11, n10, n01, total - n11 - n10 - n01)
                        for record in enumerate_assignments(science, n_treated).records:
                            ways[record.observed] = (
                                ways.get(record.observed, 0) + record.weight
                            )
                    for o11 in range(n_treated + 1):
                        for o01 in range(n_control + 1):
                            obs = ObservedTable(o11, n_treated - o11, o01, n_control - o01)
                            try:
                                dist = a_posterior(obs, n01)
                            except InfeasibleError:
                                assert obs not in ways
                                continue
                            weights = dict(zip(dist.support, dist.weights))
                            a = obs.n11 + obs.n01 - n01 - n11
                            assert weights.get(a, 0) == ways.get(obs, 0)


def _fraction_moments(dist, value):
    """Mean and variance of value(record) from Fraction(ways, C(N, N1))."""
    science = dist.science
    denominator = math.comb(science.total, dist.n_treated)
    weights = [
        Fraction(_ways(science, r.treated_types), denominator) for r in dist.records
    ]
    mean = sum(w * value(r) for w, r in zip(weights, dist.records))
    second = sum(w * value(r) ** 2 for w, r in zip(weights, dist.records))
    return mean, second - mean * mean


@ORACLE
@given(sciences())
def test_moment_cells_are_unbiased_over_the_assignments(science):
    # Averaged over every assignment, the cell estimates given the true
    # harmed count recover the science table's other three cells.
    for n_treated in range(1, science.total):
        dist = enumerate_assignments(science, n_treated)
        sums = [0, 0, 0]
        for record in dist.records:
            cells = moment_cells(record.observed, science.n01)
            sums = [s + record.weight * c for s, c in zip(sums, cells)]
        means = tuple(s / dist.denominator for s in sums)
        assert means == (science.n11, science.n00, science.n10)


@ORACLE
@given(sciences())
def test_pvalue_is_the_enumerated_control_success_law(science):
    # Under the true s = n11 + n01 responders under control, p(s) read off
    # the walked curve is the enumerated probability of the control-success
    # counts no likelier than the observed one.
    responders = science.n11 + science.n01
    for n_treated in range(1, science.total):
        dist = enumerate_assignments(science, n_treated)
        law = {}
        for record in dist.records:
            h = record.observed.n01
            law[h] = law.get(h, 0) + record.weight
        for obs in {record.observed for record in dist.records}:
            tail = sum(w for w in law.values() if w <= law[obs.n01])
            assert pvalue_exact(obs, responders) == Fraction(tail, dist.denominator)


@ORACLE
@given(sciences())
def test_integer_moments_equal_the_fraction_reference(science):
    for n_treated in range(1, science.total):
        dist = enumerate_assignments(science, n_treated)
        n_control = science.total - n_treated

        def tau_hat(r):
            return (Fraction(r.observed.n11, n_treated)
                    - Fraction(r.observed.n01, n_control))

        assert dist.tau_hat_moments() == _fraction_moments(dist, tau_hat)
        assert dist.prediction_gap_moments() == _fraction_moments(
            dist, lambda r: r.attributable - n_treated * tau_hat(r)
        )


def _reference_lemma1(constants, n_treated):
    """``lemma1_check``'s mean, variance and match as the Fraction formula it replaced."""
    values = [Fraction(c) for c in constants]
    total = len(values)
    n_assignments = math.comb(total, n_treated)
    sums = [sum(combo) for combo in itertools.combinations(values, n_treated)]
    mean = Fraction(sum(sums), n_assignments)
    variance = Fraction(sum(s * s for s in sums), n_assignments) - mean * mean
    c_bar = sum(values) / total
    s_c2 = sum((c - c_bar) ** 2 for c in values) / (total - 1)
    expected_var = Fraction(n_treated * (total - n_treated), total) * s_c2
    return mean, variance, mean == n_treated * c_bar and variance == expected_var


# Constants as ints, rationals and floats, from tiny to far past 53 bits.
CONSTANT = st.one_of(
    st.integers(-9, 9), st.integers(-10**30, 10**30),
    st.fractions(max_denominator=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(CONSTANT, min_size=2, max_size=8))
def test_lemma1_check_is_the_fraction_formula(constants):
    for n_treated in range(1, len(constants)):
        report = lemma1_check(constants, n_treated)
        assert tuple(report) == _reference_lemma1(constants, n_treated)
        assert type(report.mean) is type(report.variance) is Fraction
        assert report.matches is True


def _science_rates(science):
    """p1 and p0: the shares of a science table's units responding under
    treatment and under control."""
    return (Fraction(science.n11 + science.n10, science.total),
            Fraction(science.n11 + science.n01, science.total))


def _observed_rates(obs):
    """p1_hat and p0_hat: the observed success rates of the two arms."""
    return Fraction(obs.n11, obs.n_treated), Fraction(obs.n01, obs.n_control)


def _reference_tau_variance(science, n_treated):
    """The Fraction chain the integer closed form replaced."""
    total, n_control = science.total, science.total - n_treated
    (p1, p0), tau = _science_rates(science), science.tau
    inner = (
        p1 * (1 - p1) / n_treated
        + p0 * (1 - p0) / n_control
        - tau * (1 - tau) / total
        - Fraction(2 * science.n01, total * total)
    )
    return Fraction(total, total - 1) * inner


def _reference_attributable_mse(science, n_treated):
    total, (_, p0) = science.total, _science_rates(science)
    return Fraction(total * total * n_treated, (total - n_treated) * (total - 1)) * p0 * (1 - p0)


@settings(max_examples=300, deadline=None)
@given(sciences(max_total=400), st.data())
def test_population_moments_equal_the_fraction_reference(science, data):
    n_treated = data.draw(st.integers(1, science.total - 1), label="N1")
    assert population_tau_variance(science, n_treated) == _reference_tau_variance(
        science, n_treated
    )
    assert population_attributable_mse(science, n_treated) == _reference_attributable_mse(
        science, n_treated
    )


def _reference_plugins(obs, n01):
    """The plug-in variances and prediction MSEs as Fraction chains in p1_hat,
    p0_hat and tau_hat: neyman, improved, sensitivity at n01, and the MSE
    from the control-arm and from the treated-arm rate."""
    total, n_treated, n_control = obs.total, obs.n_treated, obs.n_control
    p1, p0 = _observed_rates(obs)
    tau = p1 - p0
    core = p1 * (1 - p1) / n_treated + p0 * (1 - p0) / n_control
    improved = Fraction(total, total - 1) * (core - tau * (1 - tau) / total)
    scale = Fraction(total * total * n_treated, n_control * (total - 1))
    return (
        Fraction(total, total - 1) * core,
        improved,
        improved - Fraction(2 * n01, (total - 1) * total),
        scale * p0 * (1 - p0),
        scale * p1 * (1 - p1),
    )


def _or_infeasible(estimator, *args):
    """The estimator's value, or None where it raises InfeasibleError."""
    try:
        return estimator(*args)
    except InfeasibleError:
        return None


@PROPERTY
@given(st.one_of(tables(), tables(one_unit_arm=True)))
def test_plugins_are_the_fraction_formulas_at_estimated_margins(obs):
    # Every harmed count 0..N, the sweep's rows included; tables with a
    # one-unit arm, where the classic variance has no per-arm sample
    # variance, are drawn as often as the others.
    level = 0.9
    z = NormalDist().inv_cdf((1 + level) / 2)
    p1, p0 = _observed_rates(obs)
    assert tau_hat(obs) == p1 - p0
    classic = None
    if min(obs.n_treated, obs.n_control) >= 2:
        classic = p1 * (1 - p1) / (obs.n_treated - 1) + p0 * (1 - p0) / (obs.n_control - 1)
    assert _or_infeasible(classic_neyman_variance, obs) == classic
    rows = sensitivity_sweep(obs, range(obs.total + 1), level)
    for n01, row in zip(range(obs.total + 1), rows, strict=True):
        neyman, improved, sensitivity, _, _ = _reference_plugins(obs, n01)
        assert neyman_variance(obs) == neyman
        assert improved_variance(obs) == improved
        feasible = sensitivity >= 0
        assert _or_infeasible(sensitivity_variance, obs, n01) == (sensitivity if feasible else None)
        assert (row.n01, row.point, row.feasible) == (n01, float(p1 - p0), feasible)
        if feasible:
            half = z * math.sqrt(sensitivity)
            assert row.variance == float(sensitivity_variance(obs, n01))
            assert row.interval == IntervalEstimate(
                float(p1 - p0), float(p1 - p0) - half, float(p1 - p0) + half,
                level, "improved" if n01 == 0 else "sensitivity",
            )
        else:
            assert (row.variance, row.interval, row.note) == (None, None, (
                f"plug-in variance is negative at n01={n01}; "
                "the value is implausible for this data"
            ))
    _, _, _, mse, compat_mse = _reference_plugins(obs, 0)
    centre = float(obs.n_treated * (p1 - p0))
    for compat, expected in ((False, mse), (True, compat_mse)):
        prediction = neyman_predict(obs, level, compat_paper_mse=compat)
        half = z * math.sqrt(expected)
        assert (prediction.point, prediction.lower, prediction.upper) == (
            centre, centre - half, centre + half
        )



@st.composite
def wide_tables(draw):
    """An observed table with N up to 10^4 whose n11_obs and n00_obs are at
    most 20, so its likelihood grid stays small, and a feasible harmed count."""
    n11, n00 = draw(st.integers(0, 20)), draw(st.integers(0, 20))
    n10 = draw(st.integers(0 if n11 else 1, 5000))
    n01 = draw(st.integers(0 if n00 else 1, 10**4 - n11 - n10 - n00))
    obs = ObservedTable(n11, n10, n01, n00)
    return obs, draw(st.integers(0, min(3, n10 + n01)))


def _reference_distribution(grid, value) -> tuple:
    """Support and weights of the pushforward of the grid's numerators by
    ``value``, each support value as the Fraction formula states it."""
    sums = {}
    for point, weight in grid.items():
        sums[value(point)] = sums.get(value(point), 0) + weight
    support = tuple(sorted(sums))
    return support, tuple(sums[v] for v in support)


@settings(max_examples=40, deadline=None)
@given(wide_tables(), st.data(), LEVELS)
def test_posterior_reads_and_sweep_rows_are_the_fraction_formulas_up_to_n_10_4(
    design, data, level
):
    # The tau support is held as integers over N and the A support as integers
    # over 1; every public read is the Fraction formula that held the support
    # as Fractions, exactly, and every float the commands print from the
    # integers is that formula's float. The grid walk, not the column sweep,
    # gives the reference weights.
    obs, harmed = design
    total = obs.total
    grid = {ParameterPoint(n11, n10, harmed): w
            for _, n11, n10s, ws in likelihood._grid(obs, range(harmed, harmed + 1))
            for n10, w in zip(n10s, ws)}
    base = obs.n11 + obs.n01 - harmed
    for dist, value in ((tau_posterior(obs, harmed), lambda p: Fraction(p.n10 - harmed, total)),
                        (a_posterior(obs, harmed), lambda p: base - p.n11)):
        support, weights = _reference_distribution(grid, value)
        whole = sum(weights)
        mass = tuple(Fraction(w, whole) for w in weights)
        assert (dist.support, dist.weights, dist.mass) == (support, weights, mass)
        assert all(type(v) is type(u) for v, u in zip(dist.support, support))
        median = next(v for v, c in zip(support, itertools.accumulate(weights)) if 2 * c >= whole)
        mode = support[weights.index(max(weights))]
        assert (dist.median(), dist.mode()) == (median, mode)
        assert type(dist.median()) is type(median) and type(dist.mode()) is type(mode)
        reference = SimpleNamespace(support=support, mass=mass)
        assert hpd_window(dist, level) == _brute_force_hpd(reference, level)
        assert [v / dist.denominator for v in dist.values] == [float(v) for v in support]
        assert [w / dist.total for w in dist.weights] == [float(m) for m in mass]

    if (1 + level) / 2 == 1:  # no finite normal quantile: no moment interval at this level
        with pytest.raises(ValueError, match="too close to 1"):
            normal_quantile(level)
        return
    z = NormalDist().inv_cdf((1 + level) / 2)
    p1, p0 = _observed_rates(obs)
    n01s = sorted({0, *data.draw(st.lists(st.integers(0, total), max_size=20), label="n01s")})
    for n01, row in zip(n01s, sensitivity_sweep(obs, n01s, level), strict=True):
        variance = _reference_plugins(obs, n01)[2]
        assert row.point == float(p1 - p0)
        assert _or_infeasible(sensitivity_variance, obs, n01) == (
            variance if variance >= 0 else None
        )
        if variance >= 0:
            half = z * math.sqrt(variance)
            assert row.variance == float(variance)
            assert row.interval == IntervalEstimate(
                float(p1 - p0), float(p1 - p0) - half, float(p1 - p0) + half,
                level, "improved" if n01 == 0 else "sensitivity",
            )
        else:
            assert (row.feasible, row.variance, row.interval) == (False, None, None)


def _reference_n01_bounds(obs, assumption):
    """``n01_bounds`` as the Fraction formula in the observed rates it replaced."""
    total = obs.total
    p1, p0 = _observed_rates(obs)
    t = p1 - p0
    if assumption == "frechet":
        lo = max(0, math.ceil(-total * t))
        hi = math.floor(min(total * p0, total * (1 - p1)))
    elif assumption == "nonneg-correlation":
        lo = max(0, math.ceil(-total * t))
        hi = math.floor(total * p0 * (1 - p1))
    else:
        lo = 0
        hi = math.floor(total * p0 * (1 - p1))
    if hi < lo:
        raise InfeasibleError(
            f"data are inconsistent with assumption {assumption!r}: "
            f"bounds [{lo}, {hi}] are empty"
        )
    return lo, hi


def _bounds_or_message(bounds, obs, assumption):
    try:
        return bounds(obs, assumption)
    except InfeasibleError as exc:
        return str(exc)


# Small counts reach the empty and the one-point ranges; large ones the
# integer floors far past a float's 53 bits.
COUNT = st.one_of(st.integers(0, 8), st.integers(0, 10**24))


@settings(max_examples=300, deadline=None)
@given(st.tuples(COUNT, COUNT, COUNT, COUNT).filter(lambda c: c[0] + c[1] and c[2] + c[3]),
       st.sampled_from(ASSUMPTIONS))
def test_n01_bounds_are_the_fraction_formula_at_any_size(counts, assumption):
    obs = ObservedTable(*counts)
    assert _bounds_or_message(n01_bounds, obs, assumption) == _bounds_or_message(
        _reference_n01_bounds, obs, assumption
    )


def test_n01_bounds_are_the_fraction_formula_on_every_small_table():
    infeasible = 0
    for counts in itertools.product(range(9), repeat=4):
        if counts[0] + counts[1] and counts[2] + counts[3]:
            obs = ObservedTable(*counts)
            for assumption in ASSUMPTIONS:
                expected = _bounds_or_message(_reference_n01_bounds, obs, assumption)
                assert _bounds_or_message(n01_bounds, obs, assumption) == expected
                infeasible += isinstance(expected, str)
    assert infeasible  # the InfeasibleError text is compared, not only the bounds

@ORACLE
@given(sciences(max_total=60), st.data(), st.integers(1, 5000), st.integers(0, 2**32))
def test_monte_carlo_tally_equals_rowwise_unique(science, data, draws, seed):
    n_treated = data.draw(st.integers(1, science.total - 1), label="N1")
    dist = monte_carlo(science, n_treated, draws, seed)
    rng = np.random.default_rng(seed)
    colors = [science.n11, science.n10, science.n01, science.n00]
    rows, counts = np.unique(
        rng.multivariate_hypergeometric(colors, n_treated, size=draws),
        axis=0, return_counts=True,
    )
    assert dist.denominator == draws
    assert [(r.treated_types, r.weight) for r in dist.records] == [
        (tuple(row.tolist()), count) for row, count in zip(rows, counts.tolist())
    ]


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=2**-53, max_value=1, exclude_max=True))
@example(2**-53)
@example(1e-13)
@example(4e-7)
@example(0.05)
def test_level_labels_keep_a_level_below_one_below_one(alpha):
    # Every alpha the CLI takes, down to 2^-53, as an inversion level 1 - alpha
    # in percent and as a plain level: the label is :g's 6 significant digits
    # unless those read 100% or 1, and never reads either.
    level = 1 - alpha
    for scale in (1, 100):
        label = _level_label(level, scale)
        assert float(label) < scale
        if float(f"{scale * level:g}") < scale:
            assert label == f"{scale * level:g}"


_JSON_CHARS = st.one_of(st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\u00e9\u2028\uffff\U0001f600'),
                        st.characters())
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**40, 10**40),
    st.floats(),
    st.sampled_from((-0.0, 5e-324, 1e16, 1e-5, 1.7976931348623157e308,
                     math.inf, -math.inf, math.nan)),
    st.text(_JSON_CHARS),
)
_JSON_DOCUMENTS = st.recursive(
    _JSON_SCALARS,
    lambda members: st.one_of(
        st.lists(members),
        st.lists(members).map(tuple),
        st.dictionaries(st.text(_JSON_CHARS), members),
    ),
    max_leaves=20,
)


@PROPERTY
@given(_JSON_DOCUMENTS)
@example({"": [[], {}, ()], "a": {"b": [{}]}, "c": ((), [[]])})
@example([True, 1, False, 0, None, 1.0, -0.0, -10**40, 10**40])
@example([math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5, 1.7976931348623157e308])
@example({'"\\\x00\x1f\x7f\u00e9\U0001f600': '"\\/\x08\t\n\u2028\uffff\U0001f600'})
def test_json_writer_is_json_dumps_with_indent_2(document):
    assert cli._json(document) == json.dumps(document, indent=2)


@pytest.mark.parametrize("argv", [
    "estimate 18 14 5 16 --method all",
    "sensitivity 2 3 1 4 --n01-max 4",
    "posterior 18 14 5 16 --target A",
    "attributable 1 0 3 2 --curve",
    "simulate 2 3 1 4 --n1 5 --draws 200",
])
def test_every_json_command_writes_without_json_dumps(argv, monkeypatch, capsys):
    def dumps(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(cli.json, "dumps", dumps)
    assert cli.main([*argv.split(), "--format", "json"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["schema"] == f"causalurn.{argv.split()[0]}.v1"
