"""Timing wrappers installed around causalurn's public functions from outside.

Each wrapped call is a span (name, start, end, parent). Self time is a
span's duration minus the durations of its direct child spans, computed as
spans close. Spans stay in memory until the run writes them out. The hot
leaf functions (one call per grid point or per design) are counted and
timed into their parent span instead of kept one by one: a sweep at
N = 212 makes millions of such calls.

A function is patched under every name it is bound to in a loaded
``causalurn`` module, because several modules import functions by name
(``bayes`` binds ``loglik_general`` at import time, for example).
"""

from __future__ import annotations

import functools
import sys
import time

TRACED = {
    "tables": ("general_support", "in_general_support"),
    "likelihood": ("loglik_general", "likelihood_exact"),
    "bayes": ("posterior_points", "tau_posterior", "a_posterior", "hpd_window",
              "hpd_interval"),
    "attributable": ("pvalue_exact", "hl_estimate", "interval_A", "neyman_predict",
                     "standardized_pvalues"),
    "moments": ("normal_quantile", "tau_hat", "moment_cells", "improved_variance",
                "neyman_variance", "classic_neyman_variance", "sensitivity_variance",
                "n01_bounds", "confidence_interval", "sensitivity_sweep",
                "population_tau_variance", "population_attributable_mse"),
    "oracle": ("enumerate_assignments", "monte_carlo", "lemma1_check"),
    "verify": ("run_verification",),
}

HOT = {"likelihood.loglik_general", "likelihood.likelihood_exact",
       "tables.in_general_support"}


def inner_terms(obs, point) -> int:
    """Length of the inner-sum range over x in the likelihood.

    Each binomial C(a, b) of the sum in the ``likelihood`` module docstring
    needs 0 <= b <= a; intersecting those bounds on x gives [lo, hi].
    """
    n11, n10, n01 = point.n11, point.n10, point.n01
    n00 = obs.n11 + obs.n10 + obs.n01 + obs.n00 - n11 - n10 - n01
    if n00 < 0:
        return 0
    lo = max(0, obs.n11 - n10, n11 - obs.n01, n01 + n11 - obs.n10 - obs.n01)
    hi = min(n11, obs.n11, n01 + n11 - obs.n01, n00 + n01 + n11 - obs.n10 - obs.n01)
    return max(0, hi - lo + 1)


# Work counted per call, beyond calls and time: name -> (args, result) -> int.
COUNTERS = {
    "tables.general_support": lambda args, result: len(result),
    "likelihood.loglik_general": lambda args, result: inner_terms(*args[:2]),
    "likelihood.likelihood_exact": lambda args, result: inner_terms(*args[:2]),
    "bayes.posterior_points": lambda args, result: len(result.support),
    "bayes.hpd_window": lambda args, result: len(args[0].support),
    "attributable.pvalue_exact": lambda args, result: int(result > 0),
    "oracle.enumerate_assignments": lambda args, result: len(result.records),
}


class Stat:
    __slots__ = ("calls", "busy_s", "self_s", "work")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.work = 0


class Tracer:
    """Span recorder. ``stats`` aggregates by name since the last ``reset``."""

    def __init__(self):
        self.spans: list[list] = []  # [pass, name, start, end, parent index]
        self.stats: dict[str, Stat] = {}
        self.pass_no = 0
        self._stack: list[list] = []  # open spans: [child seconds, span index]
        self._patches: list[tuple] = []

    def reset(self, pass_no: int) -> None:
        self.pass_no = pass_no
        self.stats = {}

    def _stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack
        parent = stack[-1][1] if stack else -1
        index = len(self.spans)
        span = [self.pass_no, name, 0.0, 0.0, parent]
        self.spans.append(span)
        frame = [0.0, index]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            span[2], span[3] = start, end
            if stack:
                stack[-1][0] += duration
            stat = self._stat(name)
            stat.calls += 1
            stat.busy_s += duration
            stat.self_s += duration - frame[0]
        count = COUNTERS.get(name)
        if count is not None:
            stat.work += count(args, result)
        return result

    def _hot_call(self, name: str, fn, count, args, kwargs):
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            if self._stack:
                self._stack[-1][0] += duration
            stat = self._stat(name)
            stat.calls += 1
            stat.busy_s += duration
            stat.self_s += duration
        if count is not None:
            stat.work += count(args, result)
        return result

    def _wrapper(self, name: str, fn):
        if name in HOT:
            count = COUNTERS.get(name)

            @functools.wraps(fn)
            def hot(*args, **kwargs):
                return self._hot_call(name, fn, count, args, kwargs)
            return hot

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapped

    def install(self) -> None:
        loaded = [m for key, m in sys.modules.items()
                  if key == "causalurn" or key.startswith("causalurn.")]
        for module_name, functions in TRACED.items():
            module = sys.modules[f"causalurn.{module_name}"]
            for function in functions:
                original = getattr(module, function)
                wrapper = self._wrapper(f"{module_name}.{function}", original)
                for holder in loaded:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._patches.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches = []


def layer_metrics(stats: dict[str, Stat], attributable_commands: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    def get(name):
        return stats.get(name) or Stat()

    def module_self(prefix):
        return sum(s.self_s for n, s in stats.items() if n.startswith(prefix))

    pvalue = get("attributable.pvalue_exact")
    loglik, exact = get("likelihood.loglik_general"), get("likelihood.likelihood_exact")
    support, posterior = get("tables.general_support"), get("bayes.posterior_points")
    hpd, enum = get("bayes.hpd_window"), get("oracle.enumerate_assignments")
    return {
        "cli.calls": get("cli.main").calls,
        "cli.self_s": get("cli.main").self_s,
        "tables.general_support.calls": support.calls,
        "tables.general_support.points": support.work,
        "tables.general_support.busy_s": support.busy_s,
        "likelihood.loglik_general.calls": loglik.calls,
        "likelihood.loglik_general.busy_s": loglik.busy_s,
        "likelihood.inner_terms": loglik.work + exact.work,
        "likelihood.likelihood_exact.calls": exact.calls,
        "likelihood.likelihood_exact.busy_s": exact.busy_s,
        "bayes.posterior_points.self_s": posterior.self_s,
        "bayes.posterior_points.points": posterior.work,
        "bayes.pushforward.self_s": get("bayes.tau_posterior").self_s
        + get("bayes.a_posterior").self_s,
        "bayes.hpd_window.calls": hpd.calls,
        "bayes.hpd_window.busy_s": hpd.busy_s,
        "bayes.hpd_window.support": hpd.work,
        "attributable.pvalue_exact.calls": pvalue.calls,
        "attributable.pvalue_exact.busy_s": pvalue.busy_s,
        "attributable.pvalue_exact.positive_ratio":
            pvalue.work / pvalue.calls if pvalue.calls else 0.0,
        "attributable.pvalue_exact.calls_per_command":
            pvalue.calls / attributable_commands if attributable_commands else 0.0,
        "moments.self_s": module_self("moments."),
        "oracle.enumerate_assignments.calls": enum.calls,
        "oracle.enumerate_assignments.cells": enum.work,
        "oracle.enumerate_assignments.busy_s": enum.busy_s,
        "oracle.monte_carlo.busy_s": get("oracle.monte_carlo").busy_s,
        "oracle.lemma1_check.busy_s": get("oracle.lemma1_check").busy_s,
        "verify.run_verification.self_s": get("verify.run_verification").self_s,
    }


# Metrics that must repeat exactly across traced runs at one seed.
COUNT_METRICS = tuple(name for name in layer_metrics({}, 0) if not name.endswith("_s"))
