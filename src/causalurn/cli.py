"""Command-line front end.

Observed tables enter as four counts in the order ``N11 N10 N01 N00``
(treated-success, treated-failure, control-success, control-failure);
``simulate`` takes a science table's four type counts in the same order.
``causalurn <command> -h`` describes every command and option.

Formats per command, the default first: ``estimate`` text or json,
``sensitivity`` text, csv or json, ``posterior`` csv or json,
``attributable`` text or json, ``simulate`` text or json, ``verify``
text only. Human output uses 3 decimals. CSV and JSON carry 12 significant
digits and the versioned schema tag ``causalurn.<command>.v1``: a CSV
starts with it as a ``#`` comment, and a JSON document holds it under
``schema``, then an ``input`` echo of the request, then the results. A JSON
document is laid out as ``json.dumps(doc, indent=2)`` lays it out: one
member per line, two spaces per level, strings escaped to ASCII, members in
the order above. ``_json`` writes it. Exit codes: 0 success,
1 usage error, 2 infeasible request or counts too large to evaluate,
3 verification failure, 141 output closed by its reader, with no traceback
(as in ``causalurn ... | head``; 128 + SIGPIPE, the code a shell reports
for a process the signal ends). ``sensitivity --n01-max`` above the
table's N is a usage error: no population of N units holds more harmed units.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Optional

from . import attributable, bayes, moments, oracle, verify
from .tables import (
    InfeasibleError,
    IntervalEstimate,
    ObservedTable,
    ScienceTable,
    _count,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY = 3
EXIT_BROKEN_PIPE = 141


class UsageError(ValueError):
    pass


class _HelpShown(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2)
        raise UsageError(message)

    def exit(self, status=0, message=None):  # after -h: main returns, no sys.exit(0)
        raise _HelpShown


def _machine(value) -> float:
    return float(f"{float(value):.12g}")


def _masses(dist) -> list[float]:
    total = dist.total  # int true division rounds as float(Fraction(w, total)), with no gcd
    return [_machine(w / total) for w in dist.weights]


def _level_label(level: float, scale: int = 1) -> str:
    """``scale * level`` to 6 significant digits, or to as many more as keep a
    level below 1 from reading as ``scale``; 17 always do."""
    labels = (f"{scale * level:.{digits}g}" for digits in range(6, 18))
    return next(label for label in labels if float(label) < scale)


def _fmt(value) -> str:
    return f"{float(value):.3f}"


def _cell(value) -> str:
    """One CSV cell: empty for None, true/false, an int as is, else 12 digits."""
    if value is None:
        return ""
    if isinstance(value, (bool, int)):
        return str(value).lower()  # True -> "true"; digits have no case
    return f"{float(value):.12g}"


def _interval_json(estimate: IntervalEstimate) -> dict:
    return {
        "method": estimate.method,
        "point": _machine(estimate.point),
        "lower": _machine(estimate.lower),
        "upper": _machine(estimate.upper),
        "length": _machine(estimate.length),
        "level": estimate.level,
    }


# The spelling json.dumps gives a non-finite float, keyed by the float's repr.
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json(value, pad="\n") -> str:
    """``json.dumps(value, indent=2)`` for a document of dicts with str keys,
    lists, tuples, str, int, float, bool and None: each member on its own
    line, two spaces deeper than ``pad``. A scalar goes to the encoder of its
    exact type, so a bool never reads as an int."""
    kind = type(value)
    if kind is dict or kind is list or kind is tuple:
        ends, inner = "{}" if kind is dict else "[]", pad + "  "
        members = ([f"{encode_basestring_ascii(key)}: {_json(item, inner)}"
                    for key, item in value.items()] if kind is dict
                   else [_json(item, inner) for item in value])
        return ends[0] + inner + ("," + inner).join(members) + pad + ends[1] if members else ends
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is float:
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(args, echo: dict, fields, csv=None, text=None) -> int:
    """Print a result in ``args.format``: JSON ``fields()`` after the schema
    tag and the ``input`` echo, or the CSV header and rows of cells that
    ``csv()`` returns, or the lines of ``text()``. Only the requested one runs.
    """
    schema = f"causalurn.{args.command}.v1"
    if args.format == "json":
        print(_json({"schema": schema, "input": echo, **fields()}))
    elif args.format == "csv":
        header, rows = csv()
        print("\n".join([f"# {schema}", header, *(",".join(map(_cell, row)) for row in rows)]))
    else:
        print("\n".join(text()))
    return EXIT_OK


# The variance of tau-hat behind each method, in the order "all" reports.
_VARIANCES = {
    "neyman": lambda obs, n01: moments.neyman_variance(obs),
    "neyman-classic": lambda obs, n01: moments.classic_neyman_variance(obs),
    "improved": lambda obs, n01: moments.improved_variance(obs),
    "sensitivity": lambda obs, n01: moments.sensitivity_variance(obs, n01),
}


def cmd_estimate(args) -> int:
    obs = ObservedTable(*args.counts)
    _count(args.n01, "n01")
    t = moments.tau_hat(obs)
    rows = [
        moments.confidence_interval(t, variance(obs, args.n01), args.level, method=name)
        for name, variance in _VARIANCES.items()
        if args.method in (name, "all")
    ]
    labels = {"sensitivity": f"sensitivity(n01={args.n01})"}
    return _emit(
        args, {"table": args.counts, "method": args.method, "n01": args.n01, "level": args.level},
        lambda: {"tau_hat": _machine(t), "estimates": [_interval_json(row) for row in rows]},
        text=lambda: [f"tau-hat: {_fmt(t)}"] + [
            f"{labels.get(row.method, row.method):<22} {_fmt(row.point)}  "
            f"[{_fmt(row.lower)}, {_fmt(row.upper)}]  length {_fmt(row.length)}"
            for row in rows
        ],
    )


def _ends(estimate: Optional[IntervalEstimate]) -> tuple:
    if estimate is None:
        return None, None, None
    return estimate.lower, estimate.upper, estimate.length


def _interval_cells(point: str, estimate: Optional[IntervalEstimate]) -> str:
    """Point, interval and length columns of one sensitivity text row."""
    if estimate is None:
        return f"{point:>6}  {'infeasible':>16}  {'':>6}"
    return (
        f"{point:>6}  [{_fmt(estimate.lower)}, {_fmt(estimate.upper)}]  "
        f"{_fmt(estimate.length):>6}"
    )


def cmd_sensitivity(args) -> int:
    obs = ObservedTable(*args.counts)
    if args.n01_max == "auto":
        _, hi = moments.n01_bounds(obs, "nonneg-correlation-and-effect")
    else:
        try:
            hi = int(args.n01_max)
        except ValueError:
            raise UsageError(f"--n01-max must be an integer or 'auto', got {args.n01_max!r}")
        if hi < 0:
            raise UsageError("--n01-max must be nonnegative")
        if hi > obs.total:  # no population of N units holds more than N harmed
            raise UsageError(f"--n01-max must be at most N = {obs.total}, got {hi}")
    sweep = moments.sensitivity_sweep(obs, range(hi + 1), args.level)
    # The reported Bayes point is the posterior median (see README); hpd.point is the mode.
    rows = [
        (row, None, None) if dist is None
        else (row, dist.median(), bayes.hpd_interval(dist, args.level))
        for row, dist in zip(sweep, bayes.tau_posterior_sweep(obs, range(hi + 1)))
    ]
    return _emit(
        args, {"table": args.counts, "n01_max": hi, "level": args.level},
        lambda: {"rows": [
            {"n01": row.n01, "point": _machine(row.point), "feasible": row.feasible,
             **({"variance": _machine(row.variance), "moment": _interval_json(row.interval)}
                if row.feasible else {"note": row.note}),
             **({} if hpd is None else {"bayes": {
                 **_interval_json(hpd), "point": _machine(med), "mode": _machine(hpd.point)}})}
            for row, med, hpd in rows
        ]},
        csv=lambda: (
            "n01,point,variance,lower,upper,length,"
            "bayes_point,bayes_lower,bayes_upper,bayes_length,feasible",
            [
                (row.n01, row.point, row.variance, *_ends(row.interval),
                 med, *_ends(hpd), row.feasible)
                for row, med, hpd in rows
            ],
        ),
        text=lambda: [
            f"sensitivity sweep, n01 from 0 to {hi} (level {_level_label(args.level)})",
            f"{'n01':>4}  {'point':>6}  {'interval':>16}  {'length':>6}  "
            f"{'bayes':>6}  {'bayes hpd':>16}  {'length':>6}",
        ] + [
            f"{row.n01:>4}  {_interval_cells(_fmt(row.point), row.interval)}  "
            f"{_interval_cells('' if med is None else _fmt(med), hpd)}"
            for row, med, hpd in rows
        ],
    )


def _load_prior(path: Optional[str]) -> bayes.Prior:
    if path is None:
        return bayes.UNIFORM
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read prior file: {exc}")
    except (ValueError, RecursionError) as exc:  # bad encoding, syntax or nesting depth
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
        try:
            point, weight = bayes._prior_point(*map(entry.get, ("n11", "n10", "weight")))
        except (TypeError, ValueError) as exc:
            offenders.append(f"entry {index} {entry!r}: {exc}")
            continue
        weights[point] = weights[point] + weight if point in weights else weight  # a repeat adds up
    if offenders:
        raise UsageError("malformed prior entries:\n" + "\n".join(offenders))
    return bayes.Prior(weights)


def cmd_posterior(args) -> int:
    obs = ObservedTable(*args.counts)
    prior = _load_prior(args.prior_file)
    posterior = bayes.tau_posterior if args.target == "tau" else bayes.a_posterior
    dist = posterior(obs, args.n01, prior)
    values = [_machine(v / dist.denominator) for v in dist.values]
    masses = _masses(dist)
    return _emit(
        args,
        {"table": args.counts, "target": args.target, "n01": args.n01,
         "prior_file": args.prior_file},
        lambda: {"support": values, "mass": masses},
        csv=lambda: ("value,mass", zip(values, masses)),
    )


def cmd_attributable(args) -> int:
    obs = ObservedTable(*args.counts)
    curve = attributable.pvalue_curve(obs)
    hl = attributable.hl_estimate(curve)
    estimate, retained = attributable.interval_A(curve, args.alpha)
    prediction = attributable.neyman_predict(
        obs, args.level, compat_paper_mse=args.compat_paper_mse
    )
    standardized = attributable.standardized_pvalues(curve) if args.curve else None
    masses = None if standardized is None else _masses(standardized)

    def text():
        lines = [
            f"HL estimate of A: {{{', '.join(str(v) for v in hl)}}}",
            f"{_level_label(1 - args.alpha, 100)}% inversion interval for A: "
            f"[{retained[0]}, {retained[-1]}]",
        ]
        if retained != tuple(range(retained[0], retained[-1] + 1)):
            lines.append(f"  retained values are not contiguous: {list(retained)}")
        mse_tag = "treated-arm rate (compat)" if args.compat_paper_mse else "control-arm rate"
        lines.append(
            f"prediction: {_fmt(prediction.point)}  "
            f"[{_fmt(prediction.lower)}, {_fmt(prediction.upper)}]  "
            f"({_level_label(args.level, 100)}%, mse from {mse_tag})"
        )
        if standardized is not None:
            lines.append("standardized p-values (A, mass):")
            lines += [f"  {value:>4}  {mass:.12g}" for value, mass in zip(standardized.support, masses)]
        return lines

    return _emit(
        args,
        {"table": args.counts, "alpha": args.alpha, "level": args.level,
         "compat_paper_mse": args.compat_paper_mse},
        lambda: {
            "hl_estimate": list(hl),
            "inversion": _interval_json(estimate),
            "retained": list(retained),
            "prediction": _interval_json(prediction),
            **({} if standardized is None else {"standardized_pvalues": {
                "support": [int(v) for v in standardized.support], "mass": masses,
            }}),
        },
        text=text,
    )


def cmd_verify(args) -> int:
    report = verify.run_verification(max_n=args.max_n, seed=args.seed, mc_draws=args.draws)
    print("\n".join(report.lines()))
    if report.ok:
        print(f"all identities hold for every science table with N <= {args.max_n}")
        return EXIT_OK
    return EXIT_VERIFY


def cmd_simulate(args) -> int:
    science = ScienceTable(*args.counts)
    dist = oracle.monte_carlo(science, args.n1, args.draws, args.seed)
    mean, variance = dist.tau_hat_moments()
    gap_mean, gap_var = dist.prediction_gap_moments()
    exact_var = moments.population_tau_variance(science, args.n1)
    exact_mse = moments.population_attributable_mse(science, args.n1)
    return _emit(
        args,
        {"science": args.counts, "n1": args.n1, "draws": args.draws, "seed": args.seed},
        lambda: {
            "rng": dist.rng,
            "tau": _machine(science.tau),
            "tau_hat_mean": _machine(mean),
            "tau_hat_variance": _machine(variance),
            "tau_hat_variance_exact": _machine(exact_var),
            "prediction_gap_mean": _machine(gap_mean),
            "prediction_gap_variance": _machine(gap_var),
            "prediction_gap_variance_exact": _machine(exact_mse),
        },
        text=lambda: [
            f"{args.draws} draws, seed {args.seed} ({dist.rng})",
            f"tau:                    {_fmt(science.tau)}",
            f"mean tau-hat:           {_fmt(mean)}",
            f"var tau-hat:            {float(variance):.6f}  (exact {float(exact_var):.6f})",
            f"var(A - N1 tau-hat):    {float(gap_var):.6f}  (exact {float(exact_mse):.6f})",
        ],
    )


# What the four positional counts count: observed cells, or science-table types.
_OBSERVED = ("treated successes", "treated failures", "control successes", "control failures")
_SCIENCE = tuple(f"units responding under {arms}" for arms in
                 ("both arms", "treatment only", "control only", "neither arm"))


def build_parser() -> _Parser:
    parser = _Parser(
        prog="causalurn",
        description=(
            "Randomization-based causal inference for binary outcomes in "
            "completely randomized experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, counts=(), formats=()):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        # Four positionals appending to one list: argparse cannot render the
        # tuple metavar of a single nargs=4 positional in help or errors.
        for metavar, text in zip(("N11", "N10", "N01", "N00"), counts):
            p.add_argument("counts", metavar=metavar, type=int, action="append", help=text)
        if formats:
            p.add_argument("--format", default=formats[0], choices=formats)
        return p

    p = command("estimate", cmd_estimate, "point and interval estimates of the effect",
                _OBSERVED, ("text", "json"))
    p.add_argument(
        "--method", default="improved",
        choices=("improved", "neyman", "neyman-classic", "sensitivity", "all"),
    )
    p.add_argument("--n01", type=int, default=0, help="assumed number of harmed units")
    p.add_argument("--level", type=float, default=0.95)

    p = command("sensitivity", cmd_sensitivity, "sweep the assumed number of harmed units",
                _OBSERVED, ("text", "csv", "json"))
    p.add_argument(
        "--n01-max", default="auto",
        help="largest harmed count to scan, at most N, or 'auto' for the plug-in bound",
    )
    p.add_argument("--level", type=float, default=0.95)

    p = command("posterior", cmd_posterior, "posterior curve of the effect or of A",
                _OBSERVED, ("csv", "json"))
    p.add_argument("--target", default="tau", choices=("tau", "A"))
    p.add_argument("--n01", type=int, default=0)
    p.add_argument("--prior-file", default=None,
                   help='JSON {"points": [{"n11":..,"n10":..,"weight":..}, ...]}')

    p = command("attributable", cmd_attributable, "inference for the attributable effect",
                _OBSERVED, ("text", "json"))
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--level", type=float, default=0.95,
                   help="level for the prediction interval")
    p.add_argument("--compat-paper-mse", action="store_true",
                   help="plug the treated-arm rate into the prediction MSE")
    p.add_argument("--curve", action="store_true",
                   help="also print the standardized p-value curve")

    p = command("verify", cmd_verify, "run the oracle identity suite")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=int, default=20_000,
                   help="draws for the Monte Carlo subset")

    p = command("simulate", cmd_simulate, "Monte Carlo draws from a science table",
                _SCIENCE, ("text", "json"))
    p.add_argument("--n1", type=int, required=True, help="treatment arm size")
    p.add_argument("--draws", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

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
    except _HelpShown:
        return EXIT_OK
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_BROKEN_PIPE
    except (InfeasibleError, oracle.EnumerationCapError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OverflowError, MemoryError):  # a count too large for a list or a float
        print("infeasible: the counts are too large to evaluate", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        # UsageError, and contract violations from library calls (negative
        # counts, bad levels), which are usage errors at the command line.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
