"""Moment estimators, variance formulas, and the sensitivity sweep.

The difference in observed response rates is unbiased for the average
causal effect. Its exact randomization variance, for a population with
``n01`` harmed units, is

    N/(N-1) * { p1(1-p1)/N1 + p0(1-p0)/N0 - tau(1-tau)/N - 2*n01/N^2 }

which is identified once ``n01`` is fixed. ``_tau_variance`` states it
once, on integers: every margin N p enters scaled by N1 N0, so observed
N p1 and N p0 are N n11_obs N0 and N n01_obs N1, and a science table's
margins are its counts times N1 N0. It returns a numerator over the stated
denominator N^2 (N - 1) (N1 N0)^3, ``_prediction_mse`` one over
N0 (N - 1) (N1 N0)^2 for the attributable-effect prediction, and ``_cells``
the moment cells over N1 N0; ``causalurn verify`` compares these integers
with enumeration for every design up to its ``--max-n``. The public
estimators (the plug-ins, the population variances, ``tau_hat`` and
``moment_cells``) each build one exact ``Fraction`` from them; the sweep
and the intervals divide numerator by denominator into a correctly rounded
float. Property tests hold every estimator here, and ``n01_bounds``, the
feasible range for ``n01``, to formulas in the observed rates. The module
also holds normal intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist
from typing import Iterable, NamedTuple, Optional

from .tables import (InfeasibleError, IntervalEstimate, ObservedTable, ScienceTable, _count,
                     _level, _n_control)

ASSUMPTIONS = ("frechet", "nonneg-correlation", "nonneg-correlation-and-effect")


def normal_quantile(level: float) -> float:
    """Two-sided standard normal quantile for a central interval."""
    _level(level)
    upper = (1.0 + level) / 2.0
    if upper == 1.0:  # level within 1e-16 of 1: the quantile would be infinite
        raise ValueError(f"level {level} is too close to 1 for a normal quantile")
    return NormalDist().inv_cdf(upper)


def tau_hat(obs: ObservedTable) -> Fraction:
    """Difference in response rates, n11/N1 - n01/N0."""
    return Fraction(obs.n11 * obs.n_control - obs.n01 * obs.n_treated,
                    obs.n_treated * obs.n_control)


class CellEstimates(NamedTuple):
    n11: Fraction
    n00: Fraction
    n10: Fraction


def _cells(obs: ObservedTable, n01: int) -> tuple[int, int, int]:
    """The moment estimates of n11, n00 and n10 given ``n01``, each times N1 N0."""
    total, n1, n0 = obs.total, obs.n_treated, obs.n_control
    return (  # N n01_obs / N0 - n01, N n10_obs / N1 - n01, N + n01 - both
        (total * obs.n01 - n01 * n0) * n1,
        (total * obs.n10 - n01 * n1) * n0,
        (total + n01) * n1 * n0 - total * (obs.n01 * n1 + obs.n10 * n0),
    )


def moment_cells(obs: ObservedTable, n01: int = 0) -> CellEstimates:
    """Unbiased moment estimates of the science-table cells given ``n01``.

    The estimates are unconstrained: they can be non-integer or fall
    outside [0, N]. That is the documented deficiency of the moment method
    relative to likelihood-based inference, kept on purpose.
    """
    scale = obs.n_treated * obs.n_control
    return CellEstimates(*(Fraction(cell, scale) for cell in _cells(obs, _count(n01, "n01"))))


def _tau_variance(total: int, n_treated: int, y1: int, y0: int, diff: int, n01: int) -> tuple:
    """N / (N - 1) times p1 (1 - p1) / N1 + p0 (1 - p0) / N0 - tau (1 - tau) / N
    - 2 n01 / N^2 as (numerator, denominator), over N^2 (N - 1) (N1 N0)^3.

    The margins enter as integers scaled by N1 N0: y1 = N p1 N1 N0,
    y0 = N p0 N1 N0 and diff = N tau N1 N0.
    """
    n_control = _n_control(total, n_treated)
    scale = n_treated * n_control
    top = total * scale
    numerator = (
        y1 * (top - y1) * total * n_control
        + y0 * (top - y0) * total * n_treated
        - diff * (top - diff) * scale
        - 2 * n01 * total * scale * scale * scale
    )
    return numerator, total * total * (total - 1) * scale * scale * scale


def _prediction_mse(total: int, n_treated: int, y0: int) -> tuple:
    """N^2 N1 p0 (1 - p0) / (N0 (N - 1)), the variance of A - N1 tau_hat, as
    (numerator, denominator), the margin scaled as in ``_tau_variance``: y0 = N p0 N1 N0."""
    n_control = _n_control(total, n_treated)
    scale = n_treated * n_control
    return n_treated * y0 * (total * scale - y0), n_control * (total - 1) * scale * scale


def _plugin_margins(obs: ObservedTable) -> tuple[int, int, int]:
    """N n11 N0 and N n01 N1, observed N p1 and N p0 times N1 N0, and their difference."""
    y1, y0 = obs.total * obs.n11 * obs.n_control, obs.total * obs.n01 * obs.n_treated
    return y1, y0, y1 - y0


def improved_variance(obs: ObservedTable) -> Fraction:
    """Plug-in variance with the tau(1-tau)/N correction (no harmed units)."""
    return Fraction(*_tau_variance(obs.total, obs.n_treated, *_plugin_margins(obs), 0))


def neyman_variance(obs: ObservedTable) -> Fraction:
    """Baseline variance: the improved formula without the subtracted term."""
    y1, y0, _ = _plugin_margins(obs)
    return Fraction(*_tau_variance(obs.total, obs.n_treated, y1, y0, 0, 0))


def classic_neyman_variance(obs: ObservedTable) -> Fraction:
    """Conventional s1^2/N1 + s0^2/N0 with per-arm N_w - 1 denominators.

    Offered for comparison only; the baseline reported by
    :func:`neyman_variance` differs by finite-population factors.
    """
    if obs.n_treated < 2 or obs.n_control < 2:
        raise InfeasibleError("per-arm sample variances need two units per arm")
    n11, n1, n01, n0 = obs.n11, obs.n_treated, obs.n01, obs.n_control
    return Fraction(n11 * (n1 - n11) * n0 * n0 * (n0 - 1) + n01 * (n0 - n01) * n1 * n1 * (n1 - 1),
                    n1 * n1 * (n1 - 1) * n0 * n0 * (n0 - 1))


def sensitivity_variance(obs: ObservedTable, n01: int) -> Fraction:
    """Plug-in variance when ``n01`` units are assumed harmed.

    Strictly decreasing in ``n01`` by 2/((N-1)N) per unit. Raises
    :class:`InfeasibleError` when the plug-in value goes negative, which
    signals an ``n01`` outside the plausible range for this data.
    """
    return Fraction(*_sensitivity_variance(obs, n01))


def _sensitivity_variance(obs: ObservedTable, n01: int) -> tuple:
    # sensitivity_variance as (numerator, denominator), over _tau_variance's.
    n01 = _count(n01, "n01")
    numerator, denominator = _tau_variance(obs.total, obs.n_treated, *_plugin_margins(obs), n01)
    if numerator < 0:
        raise InfeasibleError(
            f"plug-in variance is negative at n01={n01}; "
            "the value is implausible for this data"
        )
    return numerator, denominator


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
    total, n1, n0 = obs.total, obs.n_treated, obs.n_control
    lo = max(0, -(total * (obs.n11 * n0 - obs.n01 * n1) // (n1 * n0)))  # ceil(-N tau_hat)
    hi = total * obs.n01 * obs.n10 // (n0 * n1)  # floor(N p0 (1 - p1))
    if assumption == "frechet":  # floor(min(N p0, N (1 - p1)))
        hi = min(total * obs.n01 // n0, total * obs.n10 // n1)
    elif assumption == "nonneg-correlation-and-effect":
        lo = 0
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
    point = float(tau_hat(obs))
    rows = []
    for n01 in n01_values:
        try:
            numerator, denominator = _sensitivity_variance(obs, n01)
        except InfeasibleError as exc:
            rows.append(SensitivityRow(n01=n01, point=point, feasible=False, note=str(exc)))
            continue
        variance = numerator / denominator  # correctly rounded, as the exact ratio's float is
        method = "improved" if n01 == 0 else "sensitivity"
        interval = confidence_interval(point, variance, level, method=method)
        rows.append(SensitivityRow(n01=n01, point=point, feasible=True, variance=variance,
                                   interval=interval))
    return tuple(rows)


def _population(science: ScienceTable, n_treated: int) -> tuple[tuple, tuple]:
    """The variances of tau_hat and of A - N1 tau_hat, as (numerator, denominator)."""
    total, scale = science.total, n_treated * _n_control(science.total, n_treated)
    y1, y0 = (science.n11 + science.n10) * scale, (science.n11 + science.n01) * scale
    return (_tau_variance(total, n_treated, y1, y0, y1 - y0, science.n01),
            _prediction_mse(total, n_treated, y0))


def population_tau_variance(science: ScienceTable, n_treated: int) -> Fraction:
    """Exact randomization variance of the rate difference, any science table."""
    return Fraction(*_population(science, n_treated)[0])


def population_attributable_mse(science: ScienceTable, n_treated: int) -> Fraction:
    """Exact variance of A - N1 * tau_hat; free of the outcome association."""
    return Fraction(*_population(science, n_treated)[1])
