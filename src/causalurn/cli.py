"""Command-line front end.

Observed tables enter as four counts in the order
``n11 n10 n01 n00`` (treated-success, treated-failure, control-success,
control-failure). Human output uses 3 decimals; CSV and JSON carry 12
significant digits and a versioned schema tag. Exit codes: 0 success,
1 usage error, 2 infeasible request, 3 verification failure, 141 output
closed by its reader (as in ``causalurn ... | head``; 128 + SIGPIPE, the
code a shell reports for a process the signal ends). A closed output
prints no traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional

from . import attributable, bayes, moments, oracle, verify
from .tables import (
    InfeasibleError,
    IntervalEstimate,
    ObservedTable,
    ParameterPoint,
    ScienceTable,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY = 3
EXIT_BROKEN_PIPE = 141


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2)
        raise UsageError(message)


def _machine(value) -> float:
    return float(f"{float(value):.12g}")


def _fmt(value) -> str:
    return f"{float(value):.3f}"


def _interval_json(estimate: IntervalEstimate) -> dict:
    return {
        "method": estimate.method,
        "point": _machine(estimate.point),
        "lower": _machine(estimate.lower),
        "upper": _machine(estimate.upper),
        "length": _machine(estimate.length),
        "level": estimate.level,
    }


def _observed(counts) -> ObservedTable:
    try:
        return ObservedTable(*counts)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None


def _science(counts) -> ScienceTable:
    try:
        return ScienceTable(*counts)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------- estimate


def _estimates(obs: ObservedTable, method: str, n01: int, level: float):
    t = moments.tau_hat(obs)
    rows = []
    if method in ("neyman", "all"):
        rows.append(
            moments.confidence_interval(
                t, moments.neyman_variance(obs), level, method="neyman"
            )
        )
    if method in ("neyman-classic", "all"):
        rows.append(
            moments.confidence_interval(
                t, moments.classic_neyman_variance(obs), level,
                method="neyman-classic",
            )
        )
    if method in ("improved", "all"):
        rows.append(
            moments.confidence_interval(
                t, moments.improved_variance(obs), level, method="improved"
            )
        )
    if method in ("sensitivity", "all"):
        rows.append(
            moments.confidence_interval(
                t, moments.sensitivity_variance(obs, n01), level,
                method="sensitivity",
            )
        )
    return rows


def cmd_estimate(args) -> int:
    obs = _observed(args.counts)
    rows = _estimates(obs, args.method, args.n01, args.level)
    if args.format == "json":
        payload = {
            "schema": "causalurn.estimate.v1",
            "input": {
                "table": list(args.counts),
                "method": args.method,
                "n01": args.n01,
                "level": args.level,
            },
            "tau_hat": _machine(moments.tau_hat(obs)),
            "estimates": [_interval_json(row) for row in rows],
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(f"tau-hat: {_fmt(moments.tau_hat(obs))}")
    for row in rows:
        label = row.method if row.method != "sensitivity" else f"sensitivity(n01={args.n01})"
        print(
            f"{label:<22} {_fmt(row.point)}  "
            f"[{_fmt(row.lower)}, {_fmt(row.upper)}]  length {_fmt(row.length)}"
        )
    return EXIT_OK


# ------------------------------------------------------------- sensitivity


def _bayes_row(obs: ObservedTable, n01: int, level: float):
    # The reported Bayes point is the posterior median; see README.
    try:
        dist = bayes.tau_posterior(obs, n01)
    except (InfeasibleError, ValueError):
        return None
    return dist.median(), dist.mode(), bayes.hpd_interval(dist, level)


def cmd_sensitivity(args) -> int:
    obs = _observed(args.counts)
    if args.n01_max == "auto":
        _, hi = moments.n01_bounds(obs, "nonneg-correlation-and-effect")
    else:
        try:
            hi = int(args.n01_max)
        except ValueError:
            raise UsageError(f"--n01-max must be an integer or 'auto', got {args.n01_max!r}")
        if hi < 0:
            raise UsageError("--n01-max must be nonnegative")
    curve = moments.sensitivity_sweep(obs, range(hi + 1), args.level)
    rows = []
    for row in curve.rows:
        posterior = _bayes_row(obs, row.n01, args.level)
        rows.append((row, posterior))
    if args.format == "json":
        payload = {
            "schema": "causalurn.sensitivity.v1",
            "input": {
                "table": list(args.counts),
                "n01_max": hi,
                "level": args.level,
            },
            "rows": [],
        }
        for row, posterior in rows:
            entry = {"n01": row.n01, "point": _machine(row.point), "feasible": row.feasible}
            if row.feasible:
                entry["variance"] = _machine(row.variance)
                entry["moment"] = _interval_json(row.interval)
            else:
                entry["note"] = row.note
            if posterior is not None:
                med, mode, hpd = posterior
                entry["bayes"] = _interval_json(hpd)
                entry["bayes"]["point"] = _machine(med)
                entry["bayes"]["mode"] = _machine(mode)
            payload["rows"].append(entry)
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    if args.format == "csv":
        print("# causalurn.sensitivity.v1")
        print(
            "n01,point,variance,lower,upper,length,"
            "bayes_point,bayes_lower,bayes_upper,bayes_length,feasible"
        )
        for row, posterior in rows:
            moment = (
                [f"{row.variance:.12g}", f"{row.interval.lower:.12g}",
                 f"{row.interval.upper:.12g}", f"{row.interval.length:.12g}"]
                if row.feasible else ["", "", "", ""]
            )
            if posterior is not None:
                med, _, hpd = posterior
                post = [f"{float(med):.12g}", f"{hpd.lower:.12g}",
                        f"{hpd.upper:.12g}", f"{hpd.length:.12g}"]
            else:
                post = ["", "", "", ""]
            print(",".join(
                [str(row.n01), f"{row.point:.12g}"] + moment + post + [str(row.feasible).lower()]
            ))
        return EXIT_OK
    print(f"sensitivity sweep, n01 from 0 to {hi} (level {args.level:g})")
    header = (
        f"{'n01':>4}  {'point':>6}  {'interval':>16}  {'length':>6}  "
        f"{'bayes':>6}  {'bayes hpd':>16}  {'length':>6}"
    )
    print(header)
    for row, posterior in rows:
        if row.feasible:
            mid = (
                f"{_fmt(row.point):>6}  "
                f"[{_fmt(row.interval.lower)}, {_fmt(row.interval.upper)}]  "
                f"{_fmt(row.interval.length):>6}"
            )
        else:
            mid = f"{_fmt(row.point):>6}  {'infeasible':>16}  {'':>6}"
        if posterior is not None:
            med, _, hpd = posterior
            tail = (
                f"  {_fmt(med):>6}  [{_fmt(hpd.lower)}, {_fmt(hpd.upper)}]  "
                f"{_fmt(hpd.length):>6}"
            )
        else:
            tail = f"  {'':>6}  {'infeasible':>16}  {'':>6}"
        print(f"{row.n01:>4}  {mid}{tail}")
    return EXIT_OK


# --------------------------------------------------------------- posterior


def _load_prior(path: Optional[str], n01: int) -> bayes.Prior:
    if path is None:
        return bayes.UNIFORM
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read prior file: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"prior file is not valid JSON: {exc}")
    entries = raw.get("points") if isinstance(raw, dict) else None
    if not isinstance(entries, list):
        raise UsageError('prior file must be an object {"points": [...]}')
    weights = {}
    offenders = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            offenders.append(f"entry {index}: not an object")
            continue
        problems = []
        for key in ("n11", "n10"):
            value = entry.get(key)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                problems.append(f"{key} must be a nonnegative integer")
        weight = entry.get("weight")
        if (
            not isinstance(weight, (int, float))
            or isinstance(weight, bool)
            or weight < 0
            or (isinstance(weight, float) and not math.isfinite(weight))
        ):
            problems.append("weight must be a finite nonnegative number")
        if problems:
            offenders.append(f"entry {index} {entry!r}: " + "; ".join(problems))
            continue
        point = ParameterPoint(n11=entry["n11"], n10=entry["n10"], n01=n01)
        weights[point] = weights.get(point, Fraction(0)) + Fraction(weight)
    if offenders:
        raise UsageError("malformed prior entries:\n" + "\n".join(offenders))
    if not weights or not any(weights.values()):
        raise UsageError("prior file assigns no positive weight")
    return bayes.Prior.from_weights(weights)


def cmd_posterior(args) -> int:
    obs = _observed(args.counts)
    prior = _load_prior(args.prior_file, args.n01)
    if args.target == "tau":
        dist = bayes.tau_posterior(obs, args.n01, prior)
    else:
        dist = bayes.a_posterior(obs, args.n01, prior)
    values = [_machine(v) for v in dist.support]
    masses = [_machine(m) for m in dist.mass]
    if args.format == "json":
        payload = {
            "schema": "causalurn.posterior.v1",
            "input": {
                "table": list(args.counts),
                "target": args.target,
                "n01": args.n01,
                "prior_file": args.prior_file,
            },
            "support": values,
            "mass": masses,
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print("# causalurn.posterior.v1")
    print("value,mass")
    for value, mass in zip(values, masses):
        print(f"{value:.12g},{mass:.12g}")
    return EXIT_OK


# ------------------------------------------------------------ attributable


def cmd_attributable(args) -> int:
    obs = _observed(args.counts)
    hl = attributable.hl_estimate(obs)
    estimate, retained = attributable.interval_A(obs, args.alpha)
    prediction = attributable.neyman_predict(
        obs, args.level, compat_paper_mse=args.compat_paper_mse
    )
    curve = attributable.standardized_pvalues(obs) if args.curve else None
    if args.format == "json":
        payload = {
            "schema": "causalurn.attributable.v1",
            "input": {
                "table": list(args.counts),
                "alpha": args.alpha,
                "level": args.level,
                "compat_paper_mse": args.compat_paper_mse,
            },
            "hl_estimate": list(hl),
            "inversion": _interval_json(estimate),
            "retained": list(retained),
            "prediction": _interval_json(prediction),
        }
        if curve is not None:
            payload["standardized_pvalues"] = {
                "support": [int(v) for v in curve.support],
                "mass": [_machine(m) for m in curve.mass],
            }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(f"HL estimate of A: {{{', '.join(str(v) for v in hl)}}}")
    print(
        f"{100 * (1 - args.alpha):g}% inversion interval for A: "
        f"[{retained[0]}, {retained[-1]}]"
    )
    contiguous = retained == tuple(range(retained[0], retained[-1] + 1))
    if not contiguous:
        print(f"  retained values are not contiguous: {list(retained)}")
    mse_tag = "treated-arm rate (compat)" if args.compat_paper_mse else "control-arm rate"
    print(
        f"prediction: {_fmt(prediction.point)}  "
        f"[{_fmt(prediction.lower)}, {_fmt(prediction.upper)}]  "
        f"({100 * args.level:g}%, mse from {mse_tag})"
    )
    if curve is not None:
        print("standardized p-values (A, mass):")
        for value, mass in zip(curve.support, curve.mass):
            print(f"  {value:>4}  {float(mass):.12g}")
    return EXIT_OK


# ----------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    if args.max_n < 2:
        raise UsageError("--max-n must be at least 2; smaller populations have no designs")
    report = verify.run_verification(
        max_n=args.max_n, seed=args.seed, mc_draws=args.draws
    )
    for line in report.lines():
        print(line)
    if report.ok:
        print(f"all identities hold for every science table with N <= {args.max_n}")
        return EXIT_OK
    return EXIT_VERIFY


# --------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    science = _science(args.counts)
    if not 1 <= args.n1 <= science.total - 1:
        raise UsageError("--n1 must leave both arms nonempty")
    dist = oracle.monte_carlo(science, args.n1, args.draws, args.seed)
    mean, variance = dist.tau_hat_moments()
    gap_mean, gap_var = dist.prediction_gap_moments()
    exact_var = moments.population_tau_variance(science, args.n1)
    exact_mse = moments.population_attributable_mse(science, args.n1)
    if args.format == "json":
        payload = {
            "schema": "causalurn.simulate.v1",
            "input": {
                "science": list(args.counts),
                "n1": args.n1,
                "draws": args.draws,
                "seed": args.seed,
            },
            "rng": dist.rng,
            "tau": _machine(science.tau),
            "tau_hat_mean": _machine(mean),
            "tau_hat_variance": _machine(variance),
            "tau_hat_variance_exact": _machine(exact_var),
            "prediction_gap_mean": _machine(gap_mean),
            "prediction_gap_variance": _machine(gap_var),
            "prediction_gap_variance_exact": _machine(exact_mse),
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(f"{args.draws} draws, seed {args.seed} ({dist.rng})")
    print(f"tau:                    {_fmt(science.tau)}")
    print(f"mean tau-hat:           {_fmt(mean)}")
    print(f"var tau-hat:            {float(variance):.6f}  (exact {float(exact_var):.6f})")
    print(f"var(A - N1 tau-hat):    {float(gap_var):.6f}  (exact {float(exact_mse):.6f})")
    return EXIT_OK


# ------------------------------------------------------------------ wiring


def build_parser() -> _Parser:
    parser = _Parser(
        prog="causalurn",
        description=(
            "Randomization-based causal inference for binary outcomes in "
            "completely randomized experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_table(p):
        p.add_argument(
            "counts", type=int, nargs=4,
            metavar=("N11", "N10", "N01", "N00"),
            help="observed counts: treated-success treated-failure "
                 "control-success control-failure",
        )

    p = sub.add_parser("estimate", help="point and interval estimates of the effect")
    add_table(p)
    p.add_argument(
        "--method", default="improved",
        choices=("improved", "neyman", "neyman-classic", "sensitivity", "all"),
    )
    p.add_argument("--n01", type=int, default=0, help="assumed number of harmed units")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sensitivity", help="sweep the assumed number of harmed units")
    add_table(p)
    p.add_argument(
        "--n01-max", default="auto",
        help="largest harmed count to scan, or 'auto' for the plug-in bound",
    )
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--format", default="text", choices=("text", "csv", "json"))
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("posterior", help="posterior curve of the effect or of A")
    add_table(p)
    p.add_argument("--target", default="tau", choices=("tau", "A"))
    p.add_argument("--n01", type=int, default=0)
    p.add_argument("--prior-file", default=None,
                   help='JSON {"points": [{"n11":..,"n10":..,"weight":..}, ...]}')
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.set_defaults(func=cmd_posterior)

    p = sub.add_parser("attributable", help="inference for the attributable effect")
    add_table(p)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--level", type=float, default=0.95,
                   help="level for the prediction interval")
    p.add_argument("--compat-paper-mse", action="store_true",
                   help="plug the treated-arm rate into the prediction MSE")
    p.add_argument("--curve", action="store_true",
                   help="also print the standardized p-value curve")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.set_defaults(func=cmd_attributable)

    p = sub.add_parser("verify", help="run the oracle identity suite")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=int, default=20_000,
                   help="draws for the Monte Carlo subset")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte Carlo draws from a science table")
    p.add_argument(
        "counts", type=int, nargs=4,
        metavar=("N11", "N10", "N01", "N00"),
        help="science-table counts by potential-outcome type "
             "(both, treatment-only, control-only, neither)",
    )
    p.add_argument("--n1", type=int, required=True, help="treatment arm size")
    p.add_argument("--draws", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.set_defaults(func=cmd_simulate)

    return parser


_parser: Optional[_Parser] = None


def _discard_stdout() -> None:
    # The reader is gone; send what is still buffered to the null device so
    # the interpreter's own flush at exit raises nothing. A stdout with no
    # file descriptor (captured in process) is left alone.
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv=None) -> int:
    # One parser per process: a fresh one per call leaves a reference cycle
    # behind for the garbage collector each time.
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        code = args.func(args)
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()
        return code
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_BROKEN_PIPE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InfeasibleError, oracle.EnumerationCapError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        # Contract violations from library calls (negative counts, bad
        # levels) are usage errors at the command line.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
