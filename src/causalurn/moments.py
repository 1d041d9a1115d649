"""Moment estimators, variance formulas, and the sensitivity sweep.

The difference in observed response rates is unbiased for the average
causal effect. Its exact randomization variance, for a population with
``n01`` harmed units, is

    N/(N-1) * { p1(1-p1)/N1 + p0(1-p0)/N0 - tau(1-tau)/N - 2*n01/N^2 }

which is identified once ``n01`` is fixed. ``_tau_variance`` states it
once: ``population_tau_variance`` evaluates it at a science table's
integer margins, and the plug-ins (``improved_variance``,
``sensitivity_variance``) at the estimated margins N p1_hat, N p0_hat and
N tau_hat, so they run the very formula that ``causalurn verify`` checks
against enumeration. ``_prediction_mse`` does the same for the mean squared
error of the attributable-effect prediction. The module also holds
normal-approximation intervals, the feasible range for ``n01``, and a
sweep over candidate ``n01`` values. All estimators return exact
rationals; intervals convert to floats at the very end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist
from typing import Iterable, NamedTuple, Optional

from .tables import InfeasibleError, IntervalEstimate, ObservedTable, ScienceTable

ASSUMPTIONS = ("frechet", "nonneg-correlation", "nonneg-correlation-and-effect")


def normal_quantile(level: float) -> float:
    """Two-sided standard normal quantile for a central interval."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    upper = (1.0 + level) / 2.0
    if upper == 1.0:  # level within 1e-16 of 1: the quantile would be infinite
        raise ValueError(f"level {level} is too close to 1 for a normal quantile")
    return NormalDist().inv_cdf(upper)


def tau_hat(obs: ObservedTable) -> Fraction:
    """Difference in response rates, n11/N1 - n01/N0."""
    return obs.p1_hat - obs.p0_hat


class CellEstimates(NamedTuple):
    n11: Fraction
    n00: Fraction
    n10: Fraction


def moment_cells(obs: ObservedTable, n01: int = 0) -> CellEstimates:
    """Unbiased moment estimates of the science-table cells given ``n01``.

    The estimates are unconstrained: they can be non-integer or fall
    outside [0, N]. That is the documented deficiency of the moment method
    relative to likelihood-based inference, kept on purpose.
    """
    if n01 < 0:
        raise ValueError("n01 must be nonnegative")
    total = obs.total
    from_control = Fraction(total * obs.n01, obs.n_control)
    from_treated = Fraction(total * obs.n10, obs.n_treated)
    return CellEstimates(
        n11=from_control - n01,
        n00=from_treated - n01,
        n10=total + n01 - from_control - from_treated,
    )


def _tau_variance(total: int, n_treated: int, y1, y0, diff, n01) -> Fraction:
    """N / (N - 1) times p1 (1 - p1) / N1 + p0 (1 - p0) / N0 - tau (1 - tau) / N
    - 2 n01 / N^2, put over the one integer denominator N^2 (N - 1) N1 N0.

    The margins enter as y1 = N p1, y0 = N p0 and diff = N tau: integers for
    a science table, exact ``Fraction``s for the plug-in estimates.
    """
    if not 1 <= n_treated <= total - 1:
        raise ValueError("n_treated must leave both arms nonempty")
    n_control = total - n_treated
    numerator = (
        y1 * (total - y1) * total * n_control
        + y0 * (total - y0) * total * n_treated
        - diff * (total - diff) * n_treated * n_control
        - 2 * n01 * total * n_treated * n_control
    )
    return Fraction(numerator, total * total * (total - 1) * n_treated * n_control)


def _prediction_mse(total: int, n_treated: int, y0) -> Fraction:
    """N^2 N1 p0 (1 - p0) / (N0 (N - 1)), the variance of A - N1 tau_hat,
    with y0 = N p0 an integer or an exact ``Fraction``."""
    if not 1 <= n_treated <= total - 1:
        raise ValueError("n_treated must leave both arms nonempty")
    return Fraction(n_treated * y0 * (total - y0), (total - n_treated) * (total - 1))


def _plugin_tau_variance(obs: ObservedTable, n01: int) -> Fraction:
    y1, y0 = obs.total * obs.p1_hat, obs.total * obs.p0_hat
    return _tau_variance(obs.total, obs.n_treated, y1, y0, y1 - y0, n01)


def improved_variance(obs: ObservedTable) -> Fraction:
    """Plug-in variance with the tau(1-tau)/N correction (no harmed units)."""
    return _plugin_tau_variance(obs, 0)


def neyman_variance(obs: ObservedTable) -> Fraction:
    """Baseline variance: the improved formula without the subtracted term."""
    p1, p0 = obs.p1_hat, obs.p0_hat
    return Fraction(obs.total, obs.total - 1) * (
        p1 * (1 - p1) / obs.n_treated + p0 * (1 - p0) / obs.n_control
    )


def classic_neyman_variance(obs: ObservedTable) -> Fraction:
    """Conventional s1^2/N1 + s0^2/N0 with per-arm N_w - 1 denominators.

    Offered for comparison only; the baseline reported by
    :func:`neyman_variance` differs by finite-population factors.
    """
    if obs.n_treated < 2 or obs.n_control < 2:
        raise InfeasibleError("per-arm sample variances need two units per arm")
    p1, p0 = obs.p1_hat, obs.p0_hat
    return p1 * (1 - p1) / (obs.n_treated - 1) + p0 * (1 - p0) / (obs.n_control - 1)


def sensitivity_variance(obs: ObservedTable, n01: int) -> Fraction:
    """Plug-in variance when ``n01`` units are assumed harmed.

    Strictly decreasing in ``n01`` by 2/((N-1)N) per unit. Raises
    :class:`InfeasibleError` when the plug-in value goes negative, which
    signals an ``n01`` outside the plausible range for this data.
    """
    if n01 < 0:
        raise ValueError("n01 must be nonnegative")
    value = _plugin_tau_variance(obs, n01)
    if value < 0:
        raise InfeasibleError(
            f"plug-in variance is negative at n01={n01}; "
            "the value is implausible for this data"
        )
    return value


def n01_bounds(
    obs: ObservedTable, assumption: str = "nonneg-correlation-and-effect"
) -> tuple[int, int]:
    """Plug-in integer bounds for the number of harmed units.

    Bounds round inward (ceil below, floor above) so every integer in the
    returned range is feasible under the chosen assumption. Raises
    :class:`InfeasibleError` when the data contradict the assumption.
    """
    if assumption not in ASSUMPTIONS:
        raise ValueError(f"unknown assumption {assumption!r}")
    total = obs.total
    p1, p0 = obs.p1_hat, obs.p0_hat
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


def confidence_interval(
    point, variance, level: float = 0.95, method: str = "improved"
) -> IntervalEstimate:
    """Normal-approximation interval point +/- z * sqrt(variance).

    Not clipped to [-1, 1]: out-of-range endpoints are part of the moment
    method's documented behavior.
    """
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    z = normal_quantile(level)
    center = float(point)
    half = z * math.sqrt(variance)
    return IntervalEstimate(
        point=center, lower=center - half, upper=center + half,
        level=level, method=method,
    )


@dataclass(frozen=True)
class SensitivityRow:
    n01: int
    point: float
    feasible: bool
    variance: Optional[float] = None
    interval: Optional[IntervalEstimate] = None
    note: str = ""


def sensitivity_sweep(
    obs: ObservedTable, n01_values: Iterable[int], level: float = 0.95
) -> tuple[SensitivityRow, ...]:
    """One row per candidate ``n01``: point, variance, interval, length.

    The point estimate does not change with ``n01``; only the variance
    shrinks. Infeasible values produce a marked row rather than being
    dropped, so a sweep over a full grid stays aligned.
    """
    point = tau_hat(obs)
    rows = []
    for n01 in n01_values:
        try:
            variance = sensitivity_variance(obs, n01)
        except InfeasibleError as exc:
            rows.append(
                SensitivityRow(n01=n01, point=float(point), feasible=False, note=str(exc))
            )
            continue
        method = "improved" if n01 == 0 else "sensitivity"
        interval = confidence_interval(point, variance, level, method=method)
        rows.append(
            SensitivityRow(
                n01=n01, point=float(point), feasible=True,
                variance=float(variance), interval=interval,
            )
        )
    return tuple(rows)


def population_tau_variance(science: ScienceTable, n_treated: int) -> Fraction:
    """Exact randomization variance of the rate difference, any science table."""
    return _tau_variance(
        science.total, n_treated,
        science.n11 + science.n10,  # units succeeding under treatment: N p1
        science.n11 + science.n01,  # under control: N p0
        science.n10 - science.n01,  # N tau
        science.n01,
    )


def population_attributable_mse(science: ScienceTable, n_treated: int) -> Fraction:
    """Exact variance of A - N1 * tau_hat; free of the outcome association."""
    return _prediction_mse(science.total, n_treated, science.n11 + science.n01)
