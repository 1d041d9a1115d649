"""The four benchmark workloads: fixed inputs, seeded input families, commands.

Every input is an observed table (or a science table for ``simulate``) and
the list of CLI argv lists run on it. A workload is a list of slots; a pass
runs one entry from each slot, in slot order. Fixed slots hold one entry.
Seeded slots hold ``ALTERNATIVES`` entries of similar cost, cut from a
family of generated tables sorted by recorded cost, so every seed gives a
pass with the same cost profile over different inputs. ``record.py`` builds
the entries and their reference outputs; ``run.py`` picks one entry per slot
from ``--seed``.
"""

from __future__ import annotations

import random

WORKED = (18, 14, 5, 16)
ALTERNATIVES = 6
PRIOR_DIR = "perfbench/out"


def ladder(k: int) -> tuple[int, ...]:
    """The worked example scaled by ``k`` (N = 53 k)."""
    return tuple(k * c for c in WORKED)


def prior_path(entry_id: str) -> str:
    # Relative to the checkout root: the path is echoed in the posterior
    # JSON, so it must read the same when recorded and when run.
    return f"{PRIOR_DIR}/prior-{entry_id}.json"


def _table_args(table) -> list[str]:
    return [str(c) for c in table]


# ------------------------------------------------------------ command sets


def desk_commands(entry_id: str, table) -> list[list[str]]:
    t = _table_args(table)
    return [
        ["estimate", *t, "--method", "all", "--format", "json"],
        ["sensitivity", *t, "--format", "json"],
        ["posterior", *t, "--target", "tau"],
        ["posterior", *t, "--target", "A", "--format", "json",
         "--prior-file", prior_path(entry_id)],
        ["attributable", *t, "--curve", "--format", "json"],
    ]


def sensitivity_csv(entry_id: str, table, n01_max=None) -> list[list[str]]:
    argv = ["sensitivity", *_table_args(table), "--format", "csv"]
    return [argv + (["--n01-max", str(n01_max)] if n01_max is not None else [])]


def ladder_posteriors(entry_id: str, table) -> list[list[str]]:
    t = _table_args(table)
    return [
        ["posterior", *t, "--target", "tau"],
        ["posterior", *t, "--target", "A"],
        ["posterior", *t, "--target", "tau", "--format", "json",
         "--prior-file", prior_path(entry_id)],
    ]


def harmed_posteriors(entry_id: str, table, n01: int) -> list[list[str]]:
    t = _table_args(table)
    return [
        ["posterior", *t, "--target", "tau", "--n01", str(n01)],
        ["posterior", *t, "--target", "A", "--n01", str(n01), "--format", "json"],
    ]


def attributable_curve(entry_id: str, table) -> list[list[str]]:
    return [["attributable", *_table_args(table), "--curve", "--format", "json"]]


def verify_command(entry_id: str, seed: int) -> list[list[str]]:
    return [["verify", "--max-n", "8", "--draws", "2000", "--seed", str(seed)]]


def simulate_command(entry_id: str, science, n1: int, seed: int, fmt: str) -> list[list[str]]:
    argv = ["simulate", *_table_args(science), "--n1", str(n1),
            "--draws", "100000", "--seed", str(seed)]
    return [argv + (["--format", "json"] if fmt == "json" else [])]


# ------------------------------------------------------------- generators


def random_table(rng: random.Random, lo: int, hi: int) -> tuple[int, ...]:
    """Uniform population size, arm split and per-arm success counts."""
    total = rng.randint(lo, hi)
    n1 = rng.randint(2, total - 2)
    n0 = total - n1
    a = rng.randint(0, n1)
    c = rng.randint(0, n0)
    return (a, n1 - a, c, n0 - c)


def like_worked(rng: random.Random, total: int) -> tuple[int, ...]:
    """A table of size ``total`` with the worked example's arm shares and its
    success rates each perturbed by up to 15%, so its cost stays close to
    that of the ladder table of that size."""
    n1 = round(total * 32 / 53)
    n0 = total - n1
    a = min(n1, round(n1 * 18 / 32 * rng.uniform(0.85, 1.15)))
    c = min(n0, round(n0 * 5 / 21 * rng.uniform(0.85, 1.15)))
    return (a, n1 - a, c, n0 - c)


def prior_for(rng: random.Random, table) -> dict:
    """A prior table over (n11, n10) at n01 = 0: integer and fractional
    weights on points of the no-harm support, plus two points off it."""
    n11_obs, n10_obs, n01_obs, n00_obs = table
    total = sum(table)
    points = []
    for _ in range(rng.randint(8, 24)):
        n11 = rng.randint(n01_obs, n01_obs + n11_obs)
        row = rng.randint(n11_obs + n01_obs, total - n10_obs)
        weight = rng.randint(1, 9) if rng.random() < 0.5 else round(rng.uniform(0.05, 3.0), 3)
        points.append({"n11": n11, "n10": row - n11, "weight": weight})
    points.append({"n11": total, "n10": total, "weight": 1})
    points.append({"n11": 0, "n10": 0, "weight": 0})
    return {"points": points}


# --------------------------------------------------------------- workloads
#
# A workload maps to a list of slot specs. ("fixed", id, make) is one entry.
# ("seeded", family, slots, make) draws slots * ALTERNATIVES entries with
# ``make(rng, entry_id)``; record.py sorts them by cost and cuts them into
# ``slots`` slots. ``make`` returns (commands, prior or None).


def _desk(rng, entry_id):
    table = random_table(rng, 20, 48)
    return desk_commands(entry_id, table), prior_for(rng, table)


def _fixed(commands, table, with_prior=False, **options):
    def make(rng, entry_id):
        prior = prior_for(rng, table) if with_prior else None
        return commands(entry_id, table, **options), prior
    return make


def _harmed(total):
    def make(rng, entry_id):
        table = like_worked(rng, total)
        return harmed_posteriors(entry_id, table, rng.randint(1, 5)), None
    return make


def _attrib(total):
    def make(rng, entry_id):
        return attributable_curve(entry_id, like_worked(rng, total)), None
    return make


def _verify(rng, entry_id):
    return verify_command(entry_id, rng.randint(0, 10**6)), None


def _simulate(rng, entry_id):
    return simulate_command(entry_id, (13, 10, 0, 30), 32, rng.randint(0, 10**6), "json"), None


# No command may take more than a few seconds: a run of 26 s then holds
# several passes, and a command is never long next to the calibrations
# around it. So sweep-float stops the x4 sweep at n01 = 6 (the full sweep
# takes 5 to 9 s) and attrib-curve tops out at ladder x7 (N = 371) instead
# of x10 (N = 530, 4 to 6 s). In sweep-float and attrib-curve the seeded
# commands cost clearly less or more than the median command and less than
# the slowest, both fixed (x8 prior-file posterior and x4 sweep; x5 and x7),
# so seeds do not move op_p50_s or op_tail_s.
WORKLOADS = {
    # The three slowest desk tables are fixed and seeded ones stop at N = 48:
    # p99 of a desk run is about the second-slowest command of a pass, so it
    # then falls on the same command for every seed.
    "desk-exact": [
        ("fixed", "worked", _fixed(desk_commands, WORKED, with_prior=True)),
        ("fixed", "one-treated", _fixed(desk_commands, (1, 0, 9, 30), with_prior=True)),
        ("fixed", "heavy-58", _fixed(desk_commands, (9, 13, 24, 12), with_prior=True)),
        ("fixed", "heavy-60", _fixed(desk_commands, (5, 17, 26, 12), with_prior=True)),
        ("fixed", "heavy-56", _fixed(desk_commands, (17, 10, 16, 13), with_prior=True)),
        ("seeded", "desk", 25, _desk),
    ],
    "sweep-float": [
        ("fixed", "x2", _fixed(sensitivity_csv, ladder(2))),
        ("fixed", "x4", _fixed(sensitivity_csv, ladder(4), n01_max=6)),
        ("fixed", "x8", _fixed(ladder_posteriors, ladder(8), with_prior=True)),
        ("seeded", "n106", 2, _harmed(106)),
    ],
    "attrib-curve": [
        ("fixed", "x4", _fixed(attributable_curve, ladder(4))),
        ("seeded", "n225", 1, _attrib(225)),
        ("fixed", "x5", _fixed(attributable_curve, ladder(5))),
        ("seeded", "n320", 1, _attrib(320)),
        ("fixed", "x7", _fixed(attributable_curve, ladder(7))),
    ],
    "verify-oracle": [
        ("seeded", "verify", 1, _verify),
        ("fixed", "simulate", lambda rng, entry_id: (
            simulate_command(entry_id, (13, 10, 0, 30), 32, 1, "text"), None)),
        ("seeded", "simulate", 3, _simulate),
    ],
}
