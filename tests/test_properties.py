"""Property tests of the integer likelihood kernel on generated tables.

Populations run from 4 to 90 units. Each property is checked against a
brute-force computation from ``likelihood_exact`` over ``general_support``.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from causalurn import (
    UNIFORM,
    ObservedTable,
    Prior,
    a_posterior,
    general_support,
    likelihood_exact,
    mle,
    posterior_points,
    tau_posterior,
)

PROPERTY = settings(max_examples=30, deadline=None)


@st.composite
def designs(draw):
    """An observed table with 4 <= N <= 90 and a feasible harmed count."""
    total = draw(st.integers(4, 90))
    n_treated = draw(st.integers(1, total - 1))
    n11 = draw(st.integers(0, n_treated))
    n01 = draw(st.integers(0, total - n_treated))
    obs = ObservedTable(n11, n_treated - n11, n01, total - n_treated - n01)
    harmed = draw(st.integers(0, min(3, obs.n10 + obs.n01)))
    return obs, harmed


def _pushforward(dist, fn) -> dict:
    sums = {}
    for point, mass in zip(dist.support, dist.mass):
        if mass:
            sums[fn(point)] = sums.get(fn(point), 0) + mass
    return sums


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
        prior = Prior.from_weights(weights)
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
