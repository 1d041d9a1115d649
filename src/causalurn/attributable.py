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
``pvalue_exact`` reads one p(s) off it too. ``_pvalue_numerator``, the
direct per-s sum, is the reference the tests compare the walk against.
Only s in [n01_obs, n01_obs + N1] keep the observed count in the law's
support, so only those s can have a positive p-value.

The curve is one walk along s. With w_s(h) = C(s, h) C(N - s, N0 - h) and
L_s(k) the sum of w_s(h) over h <= k, each row is unimodal, so the counts
strictly likelier than h_obs = n01_obs form one open interval (a, b) with
h_obs at one end, and p(s) C(N, N0) = C(N, N0) - (L_s(b - 1) - L_s(a)).
Both cuts step in s by the exact L_{s+1}(k) = L_s(k) - w_s(k) (N0 - k) /
(N - s), each weight by an exact integer ratio in s or h, and the far end
only moves up: O(N1 + N0) integer steps, not O(N1 min(N1, N0)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import median

from .bayes import DiscreteDistribution
from .moments import _plugin_margins, _prediction_mse, confidence_interval, tau_hat
from .tables import IntervalEstimate, ObservedTable, _count, _level


def _pvalue_numerator(obs: ObservedTable, s: int) -> int:
    """The reference ``pvalue_curve`` is tested against: p(s) times C(N, N0),
    the weights C(s, h) C(N - s, N0 - h) summed straight over the counts h
    no likelier than the observed one (zero if it is off the support).
    """
    total, draws = obs.total, obs.n_control
    weights = [math.comb(s, h) * math.comb(total - s, draws - h) for h in range(draws + 1)]
    observed = weights[obs.n01]
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
    """The p-value curve of ``obs``: one integer numerator per s, built once.

    ``near`` is L_s(h_obs) and ``far`` is L_s(k), k being a or b - 1;
    ``w_near`` and ``w_far`` are the weights at those cuts, and ``edge`` is
    the row's lowest weight, which a far cut just below the row meets next.
    """
    total, draws, h, n1 = obs.total, obs.n_control, obs.n01, obs.n_treated
    whole = math.comb(total, draws)
    near, w_near = whole, math.comb(total - h, draws - h)  # at s = h_obs, h_obs tops the row
    lo = max(0, h - n1)
    edge = math.comb(total - h, draws) if lo == 0 else math.comb(h, n1)
    k, far, w_far = lo - 1, 0, 0
    numerators = []
    for s in range(h, h + n1 + 1):
        # The far cut climbs over weights no likelier than h_obs's below it,
        # strictly likelier ones above it; a weight past the row comes out 0.
        while True:
            up = k + 1
            if up == h:
                w = w_near
            else:
                w = edge if k < lo else w_far * ((s - k) * (draws - k)) // (up * (n1 - s + up))
                if (w > w_near) == (up < h):
                    break
            k, far, w_far = up, far + w, w
        numerators.append(far + whole - near + w_near if k < h else near + whole - far)
        if s == h + n1:
            break
        rest = total - s
        near -= w_near * (draws - h) // rest
        w_near = w_near * ((s + 1) * (n1 - s + h)) // ((s + 1 - h) * rest)
        far -= w_far * (draws - k) // rest
        w_far = w_far * ((s + 1) * (n1 - s + k)) // ((s + 1 - k) * rest)
        edge = edge * (rest - draws) // rest if s < n1 else edge * (s + 1) // (s + 1 - n1)
        lo = max(0, s + 1 - n1)
        k = max(k, lo - 1)
    return PValueCurve(tuple(range(-obs.n10, obs.n11 + 1)), tuple(reversed(numerators)), whole)


def pvalue_exact(obs: ObservedTable, s: int) -> Fraction:
    """Two-sided p-value for s: total mass no likelier than the observed count.

    Read from ``pvalue_curve(obs)``; zero where the curve holds no A for s,
    since the observed control-success count is then impossible under s.
    Raises TypeError unless s is an integer, ValueError off [0, N].
    """
    s = _count(s, "s")
    if s > obs.total:
        raise ValueError(f"s must be at most N = {obs.total}, got {s}")
    curve = pvalue_curve(obs)
    at = obs.n_treated + obs.n01 - s  # the index of A = n11_obs + n01_obs - s
    return Fraction(curve.numerators[at] if 0 <= at <= obs.n_treated else 0, curve.denominator)


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
    Hodges-Lehmann set. An alpha so small that 1 - alpha rounds to 1 is a
    ValueError: the interval's level must lie below 1.
    """
    num_a, den_a = _level(alpha, "alpha")
    level = 1.0 - alpha
    if level == 1.0:  # alpha at most 2^-54
        raise ValueError(f"alpha {alpha} is too close to 0 for an interval level of 1 - alpha")
    threshold = num_a * curve.denominator
    pairs = zip(curve.values, curve.numerators)
    retained = tuple(a for a, num in pairs if num * den_a > threshold)
    estimate = IntervalEstimate(
        point=float(median(hl_estimate(curve))),
        lower=float(retained[0]),
        upper=float(retained[-1]),
        level=level,
        method="exact-inversion",
    )
    return estimate, retained


def neyman_predict(
    obs: ObservedTable, level: float = 0.95, compat_paper_mse: bool = False
) -> IntervalEstimate:
    """Unbiased prediction of A by N1 * tau_hat with its mean squared error.

    The mean squared error is the population formula
    N^2 N1 p0(1-p0) / {N0 (N-1)} that ``causalurn verify`` checks, with the
    observed control-arm rate plugged in; the interval is the normal one of
    ``confidence_interval``. ``compat_paper_mse`` plugs in the observed
    treated-arm rate instead, a variant convention kept for comparability; see
    the README. The prediction is not rounded to integers: out-of-range
    values are the moment method's documented behavior.
    """
    y1, y0, _ = _plugin_margins(obs)
    top, bottom = _prediction_mse(obs.total, obs.n_treated, y1 if compat_paper_mse else y0)
    point = obs.n_treated * tau_hat(obs)
    return confidence_interval(point, top / bottom, level, method="prediction")


def standardized_pvalues(curve: PValueCurve) -> DiscreteDistribution:
    """p-value curve rescaled to sum 1, over the values A >= 0.

    Covers the attainable values A in [0, n11_obs], i.e. the s range
    compatible with the observed table when no unit is harmed; this is the
    plot-ready companion to the posterior of A and shares its support hull.
    """
    start = curve.values.index(0)
    return DiscreteDistribution(curve.values[start:], curve.numerators[start:])
