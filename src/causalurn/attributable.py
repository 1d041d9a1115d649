"""Inference for the attributable effect via the count of responders.

The attributable effect, the number of treated units whose outcome was
changed by treatment, satisfies A = n11_obs + n01_obs - s where s is the
fixed number of units that respond under control. Randomization makes the
observed control successes hypergeometric: n01_obs counts how many of the
s responders landed in the control arm of size N0. Testing s therefore
reduces to a classical hypergeometric problem, and every result here is
free of any assumption about the association between potential outcomes:
none of these functions take a harmed count.

``pvalue_curve`` builds each p(s) once, as an exact integer numerator over
the shared denominator C(N, N0); ``hl_estimate``, ``interval_A`` and
``standardized_pvalues`` read that one curve in integer arithmetic, so ties
in the Hodges-Lehmann-type maximization are genuine, not float artifacts.
Only s in [n01_obs, n01_obs + N1] keep the observed count in the law's
support, so only those s can have a positive p-value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import median

from .bayes import DiscreteDistribution
from .moments import _prediction_mse, confidence_interval, tau_hat
from .tables import IntervalEstimate, ObservedTable


def _pvalue_numerator(obs: ObservedTable, s: int) -> int:
    """p(s) times C(N, N0): the summed weights C(s, h) C(N - s, N0 - h) of
    the control-success counts h no likelier than the observed one.

    Zero when the observed count is off the support of h.
    """
    total, draws = obs.total, obs.n_control
    if not 0 <= s <= total:
        raise ValueError(f"s must lie in [0, {total}], got {s}")
    lo, hi = max(0, s - obs.n_treated), min(s, draws)
    if not lo <= obs.n01 <= hi:
        return 0
    weight = math.comb(s, lo) * math.comb(total - s, draws - lo)
    weights = [weight]
    for h in range(lo, hi):
        weight = weight * (s - h) * (draws - h) // ((h + 1) * (total - s - draws + h + 1))
        weights.append(weight)
    observed = weights[obs.n01 - lo]
    return sum(w for w in weights if w <= observed)


@dataclass(frozen=True)
class PValueCurve:
    """Every p(s) that can be positive, indexed by A = n11_obs + n01_obs - s.

    ``values`` ascend over [-n10_obs, n11_obs]; each numerator is p(s) times
    ``denominator``, C(N, N0). ``pvalue_exact(obs, s)`` is the one-s view.
    """

    values: tuple[int, ...]
    numerators: tuple[int, ...]
    denominator: int


def pvalue_curve(obs: ObservedTable) -> PValueCurve:
    """The p-value curve of ``obs``: one integer numerator per s, built once."""
    base = obs.n11 + obs.n01
    values = tuple(range(-obs.n10, obs.n11 + 1))
    numerators = tuple(_pvalue_numerator(obs, base - a) for a in values)
    return PValueCurve(values, numerators, math.comb(obs.total, obs.n_control))


def pvalue_exact(obs: ObservedTable, s: int) -> Fraction:
    """Two-sided p-value for s: total mass no likelier than the observed count.

    Zero when the observed control-success count is impossible under s.
    """
    return Fraction(_pvalue_numerator(obs, s), math.comb(obs.total, obs.n_control))


def hl_estimate(curve: PValueCurve) -> tuple[int, ...]:
    """Attributable-effect values whose s maximizes the p-value.

    Discreteness makes ties real; the whole set is returned, ascending.
    """
    best = max(curve.numerators)
    return tuple(a for a, num in zip(curve.values, curve.numerators) if num == best)


def interval_A(
    curve: PValueCurve, alpha: float = 0.05
) -> tuple[IntervalEstimate, tuple[int, ...]]:
    """Test-inversion interval for A plus the full retained value set.

    Retains every A whose p(s) > alpha, comparing each integer numerator
    with alpha's exact rational value. The interval is the hull of the
    retained values, which need not be contiguous for this p-value
    ordering, hence the companion set. The point is the median of the
    Hodges-Lehmann set.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    num_a, den_a = alpha.as_integer_ratio()
    threshold = num_a * curve.denominator
    pairs = zip(curve.values, curve.numerators)
    retained = tuple(a for a, num in pairs if num * den_a > threshold)
    estimate = IntervalEstimate(
        point=float(median(hl_estimate(curve))),
        lower=float(retained[0]),
        upper=float(retained[-1]),
        level=1.0 - alpha,
        method="exact-inversion",
    )
    return estimate, retained


def neyman_predict(
    obs: ObservedTable, level: float = 0.95, compat_paper_mse: bool = False
) -> IntervalEstimate:
    """Unbiased prediction of A by N1 * tau_hat with its mean squared error.

    The mean squared error is the population formula
    N^2 N1 p0(1-p0) / {N0 (N-1)} that ``causalurn verify`` checks, with the
    control-arm rate p0_hat plugged in; the interval is the normal one of
    ``confidence_interval``. ``compat_paper_mse`` plugs in the treated-arm
    rate p1_hat instead, a variant convention kept for comparability; see
    the README. The prediction is not rounded to integers: out-of-range
    values are the moment method's documented behavior.
    """
    rate = obs.p1_hat if compat_paper_mse else obs.p0_hat
    mse = _prediction_mse(obs.total, obs.n_treated, obs.total * rate)
    return confidence_interval(obs.n_treated * tau_hat(obs), mse, level, method="prediction")


def standardized_pvalues(curve: PValueCurve) -> DiscreteDistribution:
    """p-value curve rescaled to sum 1, over the values A >= 0.

    Covers the attainable values A in [0, n11_obs], i.e. the s range
    compatible with the observed table when no unit is harmed; this is the
    plot-ready companion to the posterior of A and shares its support hull.
    """
    start = curve.values.index(0)
    return DiscreteDistribution(curve.values[start:], curve.numerators[start:])
