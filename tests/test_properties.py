"""Property tests of the integer kernels on generated tables.

Populations run up to 90 units. The likelihood properties are checked
against a brute-force computation from ``likelihood_exact`` over
``general_support``; the p-value properties against a ``Fraction``
hypergeometric law built from ``math.comb``; ``hpd_window`` against a scan
of every window. On tables of up to 20 units the support and its
membership predicate are checked against every grid point's likelihood
numerator. On science tables of up to 12 units the likelihood kernel, the
p-value at the true number of responders under control, the oracle's
integer moments and the moment cell estimates are checked against the
enumerated assignments, and the Monte Carlo tally against a row-wise
``np.unique``.
The closed-form population variances are checked against the ``Fraction``
formulas they replaced, on science tables of up to 400 units, and the
plug-in variances and prediction intervals, which evaluate the same closed
forms at estimated margins, against those formulas in p1_hat, p0_hat and
tau_hat on observed tables of up to 90 units.
"""

import math
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalurn import (
    UNIFORM,
    DiscreteDistribution,
    InfeasibleError,
    ObservedTable,
    ParameterPoint,
    Prior,
    ScienceTable,
    a_posterior,
    enumerate_assignments,
    general_support,
    hl_estimate,
    hpd_window,
    improved_variance,
    in_general_support,
    interval_A,
    likelihood,
    likelihood_exact,
    mle,
    moment_cells,
    monte_carlo,
    neyman_predict,
    neyman_variance,
    population_attributable_mse,
    population_tau_variance,
    posterior_points,
    pvalue_curve,
    pvalue_exact,
    sensitivity_variance,
    standardized_pvalues,
    tau_posterior,
)

PROPERTY = settings(max_examples=30, deadline=None)
ORACLE = settings(max_examples=100, deadline=None)


@st.composite
def tables(draw, min_total=2, max_total=90):
    """An observed table with min_total <= N <= max_total."""
    total = draw(st.integers(min_total, max_total))
    n_treated = draw(st.integers(1, total - 1))
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


@PROPERTY
@given(designs())
def test_mle_is_the_brute_force_argmax(design):
    obs, harmed = design
    values = {p: likelihood_exact(obs, p) for p in general_support(obs, harmed)}
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
    raw = {p: weights.get(p, 0) * likelihood_exact(obs, p) for p in support}
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


def _brute_force_hpd(dist, level):
    """Apply the documented rules of ``hpd_window`` in order to every window."""
    mass, size = dist.mass, len(dist.mass)
    mode = mass.index(max(mass))
    windows = [(lo, hi, sum(mass[lo:hi + 1]))
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


LEVELS = st.one_of(st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99]), st.floats(0.01, 0.99))


@PROPERTY
@given(designs(), st.sampled_from([tau_posterior, a_posterior]), LEVELS)
def test_hpd_window_follows_its_rules(design, posterior, level):
    obs, harmed = design
    dist = posterior(obs, harmed)
    assert hpd_window(dist, level) == _brute_force_hpd(dist, level)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=12).filter(any), LEVELS)
def test_hpd_window_tie_rules_on_small_integer_weights(weights, level):
    # Unimodal posteriors rarely put the mass and symmetry rules in
    # conflict; small integer weights make such ties common.
    dist = DiscreteDistribution(
        support=tuple(range(len(weights))), weights=tuple(weights)
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
    # Under the true s = n11 + n01 responders under control, p(s) is the
    # enumerated probability of the control-success counts no likelier
    # than the observed one.
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


def _reference_tau_variance(science, n_treated):
    """The Fraction chain the integer closed form replaced."""
    total, n_control = science.total, science.total - n_treated
    p1, p0, tau = science.p1, science.p0, science.tau
    inner = (
        p1 * (1 - p1) / n_treated
        + p0 * (1 - p0) / n_control
        - tau * (1 - tau) / total
        - Fraction(2 * science.n01, total * total)
    )
    return Fraction(total, total - 1) * inner


def _reference_attributable_mse(science, n_treated):
    total, p0 = science.total, science.p0
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
    p1, p0 = obs.p1_hat, obs.p0_hat
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


@PROPERTY
@given(tables())
def test_plugins_are_the_fraction_formulas_at_estimated_margins(obs):
    level = 0.9
    z = NormalDist().inv_cdf((1 + level) / 2)
    centre = float(obs.n_treated * (obs.p1_hat - obs.p0_hat))
    for n01 in range(obs.n10 + obs.n01 + 1):
        neyman, improved, sensitivity, mse, compat_mse = _reference_plugins(obs, n01)
        assert neyman_variance(obs) == neyman
        assert improved_variance(obs) == improved
        if sensitivity < 0:
            with pytest.raises(InfeasibleError):
                sensitivity_variance(obs, n01)
        else:
            assert sensitivity_variance(obs, n01) == sensitivity
        for compat, expected in ((False, mse), (True, compat_mse)):
            prediction = neyman_predict(obs, level, compat_paper_mse=compat)
            half = z * math.sqrt(expected)
            assert (prediction.point, prediction.lower, prediction.upper) == (
                centre, centre - half, centre + half
            )


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
