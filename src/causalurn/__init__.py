"""Randomization-based causal inference for binary experimental data.

Point and interval estimation of the average causal effect in completely
randomized experiments with binary outcomes, with and without the
assumption that no unit is harmed; exact likelihood and Bayesian inference
over the discrete science-table parameter space; sensitivity analysis in
the number of harmed units; and exact, prediction-style, and Bayesian
inference for the attributable effect. A brute-force enumeration oracle
backs every formula.
"""

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

__all__ = [
    "AssignmentDistribution",
    "AssignmentRecord",
    "DiscreteDistribution",
    "EnumerationCapError",
    "InfeasibleError",
    "IntervalEstimate",
    "LOG_ZERO",
    "MaxLikelihood",
    "ObservedTable",
    "PValueCurve",
    "ParameterPoint",
    "Prior",
    "ScienceTable",
    "UNIFORM",
    "a_posterior",
    "classic_neyman_variance",
    "confidence_interval",
    "enumerate_assignments",
    "general_support",
    "hl_estimate",
    "hpd_interval",
    "hpd_window",
    "improved_variance",
    "in_general_support",
    "interval_A",
    "lemma1_check",
    "likelihood_exact",
    "loglik_general",
    "loglik_monotone",
    "mle",
    "moment_cells",
    "monotone_support",
    "monte_carlo",
    "n01_bounds",
    "neyman_predict",
    "neyman_variance",
    "normality_check",
    "population_attributable_mse",
    "population_tau_variance",
    "posterior_points",
    "pvalue_curve",
    "pvalue_exact",
    "sensitivity_sweep",
    "sensitivity_variance",
    "standardized_pvalues",
    "tau_hat",
    "tau_posterior",
    "tau_posterior_sweep",
]
