"""Randomization-based causal inference for binary experimental data.

Point and interval estimation of the average causal effect in completely
randomized experiments with binary outcomes, with and without the
assumption that no unit is harmed; exact likelihood and Bayesian inference
over the discrete science-table parameter space; sensitivity analysis in
the number of harmed units; and exact, prediction-style, and Bayesian
inference for the attributable effect. A brute-force enumeration oracle
backs every formula.
"""

from types import ModuleType as _ModuleType

from .bayes import (
    UNIFORM,
    DiscreteDistribution,
    Prior,
    a_posterior,
    hpd_interval,
    hpd_window,
    posterior_points,
    tau_posterior,
    tau_posterior_sweep,
)
from .attributable import (
    PValueCurve,
    hl_estimate,
    interval_A,
    neyman_predict,
    pvalue_curve,
    pvalue_exact,
    standardized_pvalues,
)
from .likelihood import (
    LOG_ZERO,
    MaxLikelihood,
    likelihood_exact,
    loglik_general,
    loglik_monotone,
    mle,
)
from .moments import (
    classic_neyman_variance,
    confidence_interval,
    improved_variance,
    moment_cells,
    n01_bounds,
    neyman_variance,
    population_attributable_mse,
    population_tau_variance,
    sensitivity_sweep,
    sensitivity_variance,
    tau_hat,
)
from .oracle import (
    AssignmentDistribution,
    AssignmentRecord,
    EnumerationCapError,
    enumerate_assignments,
    lemma1_check,
    monte_carlo,
    normality_check,
)
from .tables import (
    InfeasibleError,
    IntervalEstimate,
    ObservedTable,
    ParameterPoint,
    ScienceTable,
    general_support,
    in_general_support,
    monotone_support,
)

__version__ = "0.1.0"

# Every name bound above that is neither private nor a submodule is public.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
