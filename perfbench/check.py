"""Correctness gate: compare a command's output with its recorded reference.

Integers, strings, booleans, grid values (k/N), HL sets and retained sets
must match exactly. Other floats (variances, moment intervals, masses) must
agree to a relative 1e-9, so a strictly more exact rounding passes and a
wrong answer does not. A posterior or p-value curve is compared as a map
from support value to mass; a value on one side only must carry a mass
below float resolution (1e-300) on the other, which is how an exact
computation and a float one differ on masses that underflow.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

REL_TOL = 1e-9
ABS_TOL = 1e-300

# Floats under these keys (or CSV columns) are grid values or echoed inputs
# and must match exactly; integers always must.
EXACT_KEYS = {"support", "value", "bayes", "inversion", "input", "bayes_point",
              "bayes_lower", "bayes_upper", "bayes_length"}


def _close(a, b, exact: bool) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or a is None:
        return a == b and type(a) is type(b)
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if exact:
        return a == b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _curve_same(ref_support, ref_mass, support, mass, exact: bool) -> bool:
    if len(ref_support) != len(ref_mass) or len(support) != len(mass):
        return False
    expected, got = dict(zip(ref_support, ref_mass)), dict(zip(support, mass))
    for value in expected.keys() | got.keys():
        if not _close(expected.get(value, 0.0), got.get(value, 0.0), exact):
            return False
    return True


def _same(ref, out, exact: bool) -> bool:
    if isinstance(ref, dict):
        if not isinstance(out, dict) or ref.keys() != out.keys():
            return False
        if "support" in ref and "mass" in ref:
            rest = ref.keys() - {"support", "mass"}
            return _curve_same(ref["support"], ref["mass"], out["support"], out["mass"],
                               exact) and all(_same(ref[k], out[k], exact) for k in rest)
        return all(_same(ref[k], out[k], exact or k in EXACT_KEYS) for k in ref)
    if isinstance(ref, list):
        return (isinstance(out, list) and len(ref) == len(out)
                and all(_same(a, b, exact) for a, b in zip(ref, out)))
    return _close(ref, out, exact)


def _cell(text: str):
    if text in ("", "true", "false"):
        return text
    try:
        return int(text)
    except ValueError:
        return float(text)


def _csv(text: str):
    """A ``# schema`` line, a header, and rows of cells, as parsed by _cell."""
    lines = text.splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, map(_cell, line.split(",")))) for line in lines[2:]]
    return lines[:2], header, rows


def _csv_same(ref: str, out: str) -> bool:
    ref_head, header, ref_rows = _csv(ref)
    out_head, _, out_rows = _csv(out)
    if ref_head != out_head:
        return False
    if header == ["value", "mass"]:
        return _curve_same([r["value"] for r in ref_rows], [r["mass"] for r in ref_rows],
                           [r["value"] for r in out_rows], [r["mass"] for r in out_rows],
                           exact=False)
    return len(ref_rows) == len(out_rows) and all(
        r.keys() == o.keys() and all(_close(r[k], o[k], k in EXACT_KEYS) for k in r)
        for r, o in zip(ref_rows, out_rows)
    )


def same_output(ref_exit: int, ref_out: str, exit_code, out: str) -> bool:
    """True when ``(exit_code, out)`` matches the reference within the rules above."""
    if exit_code != ref_exit:
        return False
    if out == ref_out:
        return True
    try:
        if ref_out.startswith("{"):
            return _same(json.loads(ref_out), json.loads(out), exact=False)
        if ref_out.startswith("# causalurn."):
            return _csv_same(ref_out, out)
    except (ValueError, KeyError, IndexError, TypeError):
        return False
    return False


# ------------------------------------------------------------- acceptance pins

WORKED_ARGS = ["18", "14", "5", "16"]


def pins_hold(argv: list[str], exit_code, out: str) -> bool:
    """The worked example's published numbers, checked on every output of a
    command on ``18 14 5 16`` that shows them; True for other commands."""
    if argv[1:5] != WORKED_ARGS or len(argv) < 5:
        return True
    if exit_code != 0:
        return False
    try:
        return _pins(argv, out)
    except (ValueError, KeyError, IndexError, TypeError, StopIteration):
        return False


def _pins(argv, out) -> bool:
    command, options = argv[0], argv[5:]
    if command == "attributable" and "json" in options:
        data = json.loads(out)
        inversion = data["inversion"]
        return (data["hl_estimate"] == [9, 10, 11]
                and (inversion["lower"], inversion["upper"]) == (2, 16))
    if command == "estimate" and "json" in options:
        data = json.loads(out)
        improved = next(e for e in data["estimates"] if e["method"] == "improved")
        return (f"{improved['lower']:.3f}", f"{improved['upper']:.3f}") == ("0.106", "0.543")
    if command == "sensitivity" and "json" in options:
        row = json.loads(out)["rows"][0]
        return row["n01"] == 0 and math.isclose(row["bayes"]["point"], 16 / 53, rel_tol=1e-11)
    if command == "posterior" and "--prior-file" not in options and "A" not in options:
        _, _, rows = _csv(out)
        cumulative = Fraction(0)
        for row in rows:
            cumulative += Fraction(row["mass"])
            if cumulative >= Fraction(1, 2) - Fraction(1, 10**9):
                return math.isclose(row["value"], 16 / 53, rel_tol=1e-11)
        return False
    return True
