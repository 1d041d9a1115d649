"""Command-line behavior: output values, formats, exit codes, round-trips."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy
import pytest

import causalurn
from causalurn.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
)
from causalurn.tables import _rows
from causalurn.verify import run_verification
from test_properties import _x_windows

PIT = ["18", "14", "5", "16"]
SUBCOMMANDS = ("estimate", "sensitivity", "posterior", "attributable", "verify", "simulate")
COUNTED = ("estimate", "sensitivity", "posterior", "attributable", "simulate")

# Outputs recorded before the CLI's renderers were merged; each must stay
# byte for byte. NUMPY_VERSION stands for the installed numpy's version.
GOLDEN_TEXT = {
    "estimate 18 14 5 16 --method all": (
        "tau-hat: 0.324",
        "neyman                 0.324  [0.072, 0.577]  length 0.506",
        "neyman-classic         0.324  [0.069, 0.580]  length 0.511",
        "improved               0.324  [0.106, 0.543]  length 0.437",
        "sensitivity(n01=0)     0.324  [0.106, 0.543]  length 0.437",
    ),
    "estimate 2 3 1 4 --method all --n01 1 --level 0.9": (
        "tau-hat: 0.200",
        "neyman                 0.200  [-0.290, 0.690]  length 0.981",
        "neyman-classic         0.200  [-0.320, 0.720]  length 1.040",
        "improved               0.200  [-0.239, 0.639]  length 0.877",
        "sensitivity(n01=1)     0.200  [-0.164, 0.564]  length 0.727",
    ),
    "sensitivity 18 14 5 16 --n01-max 6": (
        "sensitivity sweep, n01 from 0 to 6 (level 0.95)",
        " n01   point          interval  length   bayes         bayes hpd  length",
        "   0   0.324  [0.106, 0.543]   0.437   0.302  [0.075, 0.491]   0.415",
        "   1   0.324  [0.112, 0.536]   0.424   0.302  [0.094, 0.491]   0.396",
        "   2   0.324  [0.119, 0.530]   0.411   0.302  [0.094, 0.491]   0.396",
        "   3   0.324  [0.126, 0.523]   0.397   0.302  [0.094, 0.472]   0.377",
        "   4   0.324  [0.133, 0.516]   0.383   0.302  [0.094, 0.472]   0.377",
        "   5   0.324  [0.141, 0.508]   0.368   0.302  [0.113, 0.472]   0.358",
        "   6   0.324  [0.148, 0.501]   0.352   0.302  [0.113, 0.453]   0.340",
    ),
    "sensitivity 2 3 1 4 --n01-max 4": (
        "sensitivity sweep, n01 from 0 to 4 (level 0.95)",
        " n01   point          interval  length   bayes         bayes hpd  length",
        "   0   0.200  [-0.323, 0.723]   1.045   0.200  [0.000, 0.500]   0.500",
        "   1   0.200  [-0.233, 0.633]   0.867   0.200  [-0.100, 0.400]   0.500",
        "   2   0.200  [-0.120, 0.520]   0.640   0.100  [-0.200, 0.400]   0.600",
        "   3   0.200  [0.069, 0.331]   0.261   0.100  [-0.200, 0.300]   0.500",
        "   4   0.200        infeasible           0.100  [-0.300, 0.200]   0.500",
    ),
    "sensitivity 1 0 3 2 --n01-max 4": (
        "sensitivity sweep, n01 from 0 to 4 (level 0.95)",
        " n01   point          interval  length   bayes         bayes hpd  length",
        "   0   0.400  [0.208, 0.592]   0.384   0.167  [0.000, 0.500]   0.500",
        "   1   0.400        infeasible           0.167  [-0.167, 0.333]   0.500",
        "   2   0.400        infeasible           0.000  [-0.333, 0.167]   0.500",
        "   3   0.400        infeasible          -0.167  [-0.500, 0.000]   0.500",
        "   4   0.400        infeasible                        infeasible        ",
    ),
    "attributable 18 14 5 16": (
        "HL estimate of A: {9, 10, 11}",
        "95% inversion interval for A: [2, 16]",
        "prediction: 10.381  [2.807, 17.955]  (95%, mse from control-arm rate)",
    ),
    "attributable 18 14 5 16 --curve": (
        "HL estimate of A: {9, 10, 11}",
        "95% inversion interval for A: [2, 16]",
        "prediction: 10.381  [2.807, 17.955]  (95%, mse from control-arm rate)",
        "standardized p-values (A, mass):",
        "     0  0.00342608096296",
        "     1  0.00638014556688",
        "     2  0.0114644441957",
        "     3  0.0197430056677",
        "     4  0.021224834508",
        "     5  0.0332252255893",
        "     6  0.0502767514531",
        "     7  0.0731030690109",
        "     8  0.101570189807",
        "     9  0.134265587613",
        "    10  0.134265587613",
        "    11  0.134265587613",
        "    12  0.0987814647004",
        "    13  0.0660958176815",
        "    14  0.0612350166951",
        "    15  0.0322622578273",
        "    16  0.0133371721045",
        "    17  0.00412568112882",
        "    18  0.000952080260497",
    ),
    "attributable 2 3 1 4 --compat-paper-mse --alpha 0.2 --level 0.9": (
        "HL estimate of A: {0, 1, 2}",
        "80% inversion interval for A: [-2, 2]",
        "prediction: 1.000  [-1.686, 3.686]  (90%, mse from treated-arm rate (compat))",
    ),
    "attributable 1 0 3 2 --curve --compat-paper-mse": (
        "HL estimate of A: {0, 1}",
        "95% inversion interval for A: [0, 1]",
        "prediction: 0.400  [0.400, 0.400]  (95%, mse from treated-arm rate (compat))",
        "standardized p-values (A, mass):",
        "     0  0.5",
        "     1  0.5",
    ),
    "attributable 17 13 0 13 --alpha 0.3": (
        "HL estimate of A: {15, 16, 17}",
        "70% inversion interval for A: [12, 17]",
        "  retained values are not contiguous: [12, 14, 15, 16, 17]",
        "prediction: 17.000  [17.000, 17.000]  (95%, mse from control-arm rate)",
    ),
    "simulate 2 3 1 4 --n1 5 --draws 2000 --seed 3": (
        "2000 draws, seed 3 (numpy.random.Generator(PCG64(seed=3)), numpy NUMPY_VERSION)",
        "tau:                    0.200",
        "mean tau-hat:           0.200",
        "var tau-hat:            0.063660  (exact 0.062222)",
        "var(A - N1 tau-hat):    2.351711  (exact 2.333333)",
    ),
    "simulate 13 10 0 30 --n1 32 --draws 5000 --seed 11": (
        "5000 draws, seed 11 (numpy.random.Generator(PCG64(seed=11)), numpy NUMPY_VERSION)",
        "tau:                    0.189",
        "mean tau-hat:           0.189",
        "var tau-hat:            0.013805  (exact 0.013865)",
        "var(A - N1 tau-hat):    15.058890  (exact 15.238095)",
    ),
    # Thirteen chunks of oracle._MC_CHUNK = 8,192 draws, the last of 1,696:
    # the tally decode spans them all.
    "simulate 13 10 0 30 --n1 32 --draws 100000 --seed 1": (
        "100000 draws, seed 1 (numpy.random.Generator(PCG64(seed=1)), numpy NUMPY_VERSION)",
        "tau:                    0.189",
        "mean tau-hat:           0.189",
        "var tau-hat:            0.013795  (exact 0.013865)",
        "var(A - N1 tau-hat):    15.195494  (exact 15.238095)",
    ),
    # simulate's JSON, pinned nowhere else byte for byte; recorded from
    # json.dumps(indent=2) before the CLI's own writer replaced it.
    "simulate 13 10 0 30 --n1 32 --draws 5000 --seed 11 --format json": (
        "{",
        '  "schema": "causalurn.simulate.v1",',
        '  "input": {',
        '    "science": [',
        "      13,",
        "      10,",
        "      0,",
        "      30",
        "    ],",
        '    "n1": 32,',
        '    "draws": 5000,',
        '    "seed": 11',
        "  },",
        '  "rng": "numpy.random.Generator(PCG64(seed=11)), numpy NUMPY_VERSION",',
        '  "tau": 0.188679245283,',
        '  "tau_hat_mean": 0.188679761905,',
        '  "tau_hat_variance": 0.0138049883702,',
        '  "tau_hat_variance_exact": 0.0138647304843,',
        '  "prediction_gap_mean": 0.0430476190476,',
        '  "prediction_gap_variance": 15.0588897596,',
        '  "prediction_gap_variance_exact": 15.2380952381',
        "}",
    ),
}

GOLDEN_JSON = {
    "attributable 18 14 5 16 --format json": (
        {"schema": "causalurn.attributable.v1",
         "input": {"table": [18, 14, 5, 16],
                   "alpha": 0.05,
                   "level": 0.95,
                   "compat_paper_mse": False},
         "hl_estimate": [9, 10, 11],
         "inversion": {"method": "exact-inversion",
                       "point": 10.0,
                       "lower": 2.0,
                       "upper": 16.0,
                       "length": 14.0,
                       "level": 0.95},
         "retained": [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
         "prediction": {"method": "prediction",
                        "point": 10.380952381,
                        "lower": 2.80716115711,
                        "upper": 17.9547436048,
                        "length": 15.1475824477,
                        "level": 0.95}}
    ),
    "attributable 2 3 1 4 --format json": (
        {"schema": "causalurn.attributable.v1",
         "input": {"table": [2, 3, 1, 4],
                   "alpha": 0.05,
                   "level": 0.95,
                   "compat_paper_mse": False},
         "hl_estimate": [0, 1, 2],
         "inversion": {"method": "exact-inversion",
                       "point": 1.0,
                       "lower": -2.0,
                       "upper": 2.0,
                       "length": 4.0,
                       "level": 0.95},
         "retained": [-2, -1, 0, 1, 2],
         "prediction": {"method": "prediction",
                        "point": 1.0,
                        "lower": -1.61328531272,
                        "upper": 3.61328531272,
                        "length": 5.22657062544,
                        "level": 0.95}}
    ),
    "attributable 17 13 0 13 --alpha 0.3 --format json": (
        {"schema": "causalurn.attributable.v1",
         "input": {"table": [17, 13, 0, 13],
                   "alpha": 0.3,
                   "level": 0.95,
                   "compat_paper_mse": False},
         "hl_estimate": [15, 16, 17],
         "inversion": {"method": "exact-inversion",
                       "point": 16.0,
                       "lower": 12.0,
                       "upper": 17.0,
                       "length": 5.0,
                       "level": 0.7},
         "retained": [12, 14, 15, 16, 17],
         "prediction": {"method": "prediction",
                        "point": 17.0,
                        "lower": 17.0,
                        "upper": 17.0,
                        "length": 0.0,
                        "level": 0.95}}
    ),
}


# Outputs at N = 212, 424 and 1060, recorded before the likelihood grid was
# walked by its row ratio, and at N = 5300, recorded before the p-value curve
# was walked along s; each must stay byte for byte.
DATA = Path(__file__).parent / "data"
# The prior-file goldens echo the prior's path, relative to the checkout root.
GOLDEN_FILES = {
    "estimate 18 14 5 16 --method all --format json": "estimate_18_14_5_16_all.json",
    "estimate 2 3 1 4 --method all --n01 1 --level 0.9 --format json":
        "estimate_2_3_1_4_all_n01_1_level_0.9.json",
    "sensitivity 18 14 5 16 --format json": "sensitivity_18_14_5_16.json",
    "sensitivity 5 17 26 12 --format json": "sensitivity_5_17_26_12.json",
    "posterior 18 14 5 16 --target tau --format json": "posterior_18_14_5_16_tau.json",
    "sensitivity 72 56 20 64 --format csv": "sensitivity_72_56_20_64.csv",
    "posterior 144 112 40 128 --target tau --n01 20 --format json":
        "posterior_144_112_40_128_tau_n01_20.json",
    "posterior 360 280 100 320 --target A --n01 10 --format json":
        "posterior_360_280_100_320_A_n01_10.json",
    "attributable 1800 1400 500 1600 --curve --format json":
        "attributable_1800_1400_500_1600_curve.json",
    "sensitivity 144 112 40 128 --n01-max 10 --format csv":
        "sensitivity_144_112_40_128_n01_10.csv",
    "sensitivity 144 112 40 128 --format csv": "sensitivity_144_112_40_128.csv",
    # The identity counts of a passing report, which verify can add up in bulk.
    "verify --max-n 8": "verify_max_n_8.txt",
    "verify --max-n 10": "verify_max_n_10.txt",
    "verify --max-n 12": "verify_max_n_12.txt",
    "posterior 144 112 40 128 --target tau --format json"
    " --prior-file tests/data/prior_144_112_40_128.json":
        "posterior_144_112_40_128_tau_prior.json",
    "posterior 144 112 40 128 --target A --format json"
    " --prior-file tests/data/prior_144_112_40_128.json":
        "posterior_144_112_40_128_A_prior.json",
    "posterior 144 112 40 128 --n01 10 --target tau --format json"
    " --prior-file tests/data/prior_144_112_40_128.json":
        "posterior_144_112_40_128_tau_prior_n01_10.json",
    "posterior 144 112 40 128 --n01 10 --target A --format json"
    " --prior-file tests/data/prior_144_112_40_128.json":
        "posterior_144_112_40_128_A_prior_n01_10.json",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_improved_text(self, capsys):
        code, out, _ = run(capsys, "estimate", *PIT, "--method", "improved")
        assert code == EXIT_OK
        assert "0.324" in out
        assert "[0.106, 0.543]" in out
        assert "0.437" in out

    def test_neyman_text(self, capsys):
        code, out, _ = run(capsys, "estimate", *PIT, "--method", "neyman")
        assert code == EXIT_OK
        assert "[0.072, 0.577]" in out

    def test_null_table(self, capsys):
        code, out, _ = run(capsys, "estimate", "1", "1", "1", "1")
        assert code == EXIT_OK
        assert "tau-hat: 0.000" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "estimate", *PIT, "--method", "all",
                           "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["schema"] == "causalurn.estimate.v1"
        # Re-running from the parsed inputs reproduces the output verbatim.
        inputs = payload["input"]
        argv = ["estimate", *map(str, inputs["table"]),
                "--method", inputs["method"], "--n01", str(inputs["n01"]),
                "--level", str(inputs["level"]), "--format", "json"]
        code2, out2, _ = run(capsys, *argv)
        assert code2 == EXIT_OK
        assert out2 == out

    def test_infeasible_sensitivity_exits_2(self, capsys):
        code, _, err = run(capsys, "estimate", *PIT, "--method", "sensitivity",
                           "--n01", "18")
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in err

    @pytest.mark.parametrize("method", ["all", "neyman-classic"])
    def test_one_unit_arm_has_no_classic_variance(self, capsys, method):
        # One treated unit: the classic variance would divide by N1 - 1 = 0.
        code, out, err = run(capsys, "estimate", "1", "0", "3", "2", "--method", method)
        assert (code, out) == (EXIT_INFEASIBLE, "")
        assert err == "infeasible: per-arm sample variances need two units per arm\n"

    @pytest.mark.parametrize("method", ["improved", "sensitivity"])
    def test_one_unit_arm_keeps_the_plugin_variances(self, capsys, method):
        code, out, _ = run(capsys, "estimate", "1", "0", "3", "2", "--method", method)
        assert code == EXIT_OK
        assert "[0.208, 0.592]" in out

    def test_bad_counts_exit_1(self, capsys):
        code, _, err = run(capsys, "estimate", "1", "1", "0", "0")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_unknown_method_exit_1(self, capsys):
        code, _, _ = run(capsys, "estimate", *PIT, "--method", "magic")
        assert code == EXIT_USAGE

    def test_negative_n01_exit_1(self, capsys):
        code, _, err = run(capsys, "estimate", *PIT, "--method", "sensitivity",
                           "--n01", "-1")
        assert code == EXIT_USAGE
        assert "error" in err

    @pytest.mark.parametrize("method", ["improved", "neyman", "neyman-classic",
                                        "sensitivity", "all"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_negative_n01_is_a_usage_error_for_every_method(self, capsys, method, fmt):
        code, out, err = run(capsys, "estimate", *PIT, "--method", method,
                             "--n01", "-1", "--format", fmt)
        assert (code, out, err) == (EXIT_USAGE, "", "error: n01 must be nonnegative, got -1\n")

    def test_bad_level_exit_1(self, capsys):
        code, _, _ = run(capsys, "estimate", *PIT, "--level", "1.5")
        assert code == EXIT_USAGE


class TestSensitivity:
    def test_negative_n01_max_exit_1(self, capsys):
        assert run(capsys, "sensitivity", *PIT, "--n01-max", "-1") == (
            EXIT_USAGE, "", "error: --n01-max must be nonnegative\n")

    def test_level_label_below_one_never_reads_1(self, capsys):
        code, out, err = run(capsys, "sensitivity", *PIT, "--level", "0.9999996")
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[0] == "sensitivity sweep, n01 from 0 to 5 (level 0.9999996)"

    def test_reads_each_posterior_mode_once(self, capsys, monkeypatch):
        # The JSON mode is the HPD interval's point; no row reads it twice.
        modes = []
        mode = causalurn.bayes.DiscreteDistribution.mode
        monkeypatch.setattr(causalurn.bayes.DiscreteDistribution, "mode",
                            lambda dist: modes.append(dist) or mode(dist))
        code, out, _ = run(capsys, "sensitivity", *PIT, "--n01-max", "40", "--format", "json")
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        assert len(modes) == sum("bayes" in row for row in rows) == 20
        assert [row["bayes"]["mode"] for row in rows if "bayes" in row] == [
            float(f"{float(mode(dist)):.12g}") for dist in modes]

    def test_auto_bound_gives_six_rows(self, capsys):
        code, out, _ = run(capsys, "sensitivity", *PIT, "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "# causalurn.sensitivity.v1"
        rows = lines[2:]
        assert len(rows) == 6
        assert [row.split(",")[0] for row in rows] == ["0", "1", "2", "3", "4", "5"]

    def test_lengths_decrease_down_rows(self, capsys):
        _, out, _ = run(capsys, "sensitivity", *PIT, "--format", "csv")
        rows = [line.split(",") for line in out.strip().splitlines()[2:]]
        lengths = [float(row[5]) for row in rows]
        assert lengths == sorted(lengths, reverse=True)

    def test_first_row_matches_estimate(self, capsys):
        _, out, _ = run(capsys, "sensitivity", *PIT, "--format", "json")
        row0 = json.loads(out)["rows"][0]
        _, est_out, _ = run(capsys, "estimate", *PIT, "--method", "improved",
                            "--format", "json")
        estimate = json.loads(est_out)["estimates"][0]
        assert row0["moment"]["lower"] == estimate["lower"]
        assert row0["moment"]["upper"] == estimate["upper"]

    def test_table3_grid(self, capsys):
        # The reference grid: moment and Bayes columns for n01 = 0, 2, 5.
        _, out, _ = run(capsys, "sensitivity", *PIT)
        lines = out.splitlines()
        row = {int(line.split()[0]): line for line in lines[2:]}
        assert "[0.106, 0.543]" in row[0] and "0.302" in row[0]
        assert "[0.119, 0.530]" in row[2]
        assert "[0.141, 0.508]" in row[5]

    def test_explicit_bound_with_infeasible_rows(self, capsys):
        code, out, _ = run(capsys, "sensitivity", *PIT, "--n01-max", "18",
                           "--format", "csv")
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.strip().splitlines()[2:]]
        assert len(rows) == 19
        assert rows[-1][-1] == "false"

    def test_bad_bound_exit_1(self, capsys):
        code, _, _ = run(capsys, "sensitivity", *PIT, "--n01-max", "soon")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("bound", ["54", "20000"])
    def test_bound_above_n_is_a_usage_error(self, capsys, bound):
        # No population of N = 53 units holds more than 53 harmed units, so
        # the sweep stops before its first row instead of printing one per value.
        assert run(capsys, "sensitivity", *PIT, "--n01-max", bound, "--format", "csv") == (
            EXIT_USAGE, "", f"error: --n01-max must be at most N = 53, got {bound}\n"
        )

    def test_bound_at_n_prints_every_row(self, capsys):
        code, out, _ = run(capsys, "sensitivity", *PIT, "--n01-max", "53", "--format", "csv")
        assert code == EXIT_OK
        rows = out.strip().splitlines()[2:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(54))

    def test_internal_posterior_error_is_not_printed_as_infeasible(self, capsys, monkeypatch):
        # Only an empty support makes a Bayes column infeasible; any other
        # error inside the posterior ends the command.
        def broken(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr("causalurn.cli.bayes.tau_posterior_sweep", broken)
        assert run(capsys, "sensitivity", *PIT, "--n01-max", "1") == (
            EXIT_USAGE, "", "error: boom\n"
        )

    def test_walks_each_grid_once(self, capsys, monkeypatch):
        # The sweep walks each (s, x) run of the likelihood, s = n11 + n01,
        # once for every harmed count, and walks exactly the runs of the
        # feasible counts' rows. The uniform tau posterior never takes a
        # single point's numerator, the reference or a pushforward of points.
        walked = []
        original = causalurn.likelihood._add_run

        def counted(obs, s, x, *rest):
            walked.append((s, x))
            return original(obs, s, x, *rest)

        def forbidden(*args, **kwargs):
            raise AssertionError("pointwise path taken")

        monkeypatch.setattr(causalurn.likelihood, "_add_run", counted)
        monkeypatch.setattr(causalurn.likelihood, "_numerator", forbidden)
        monkeypatch.setattr(causalurn.bayes, "_numerator", forbidden)
        monkeypatch.setattr(causalurn.bayes, "_pushforward", forbidden)
        code, _, _ = run(capsys, "sensitivity", *PIT, "--n01-max", "21")
        assert code == EXIT_OK
        obs = causalurn.ObservedTable(18, 14, 5, 16)
        rows = [(n01, _rows(obs, n01)) for n01 in range(22)]
        assert [n01 for n01, grid in rows if grid] == list(range(20))
        runs = {
            (n11 + n01, x)
            for n01 in range(22)
            for n11, _, x, window in _x_windows(obs, n01)
            if window
        }
        assert len(walked) == len(set(walked))
        assert set(walked) == runs


class TestPosterior:
    @pytest.mark.parametrize("content,message", [
        ("[1]", 'prior file must be an object {"points": [...]}'),
        ('{"points": [7]}', "malformed prior entries:\nentry 0: not an object"),
        ('{"points": []}', "prior must put positive weight somewhere"),
    ], ids=["not-an-object", "entry-not-an-object", "no-points"])
    def test_prior_file_shape_exit_1(self, capsys, tmp_path, content, message):
        prior = tmp_path / "prior.json"
        prior.write_text(content)
        assert run(capsys, "posterior", *PIT, "--prior-file", str(prior)) == (
            EXIT_USAGE, "", f"error: {message}\n")

    @pytest.mark.parametrize("n01", ["0", "60"])
    def test_annihilating_prior_is_infeasible(self, capsys, tmp_path, n01):
        # (0, 0) has zero likelihood for 18 14 5 16 at n01 = 0, and no point
        # is feasible at n01 = 60: either way nothing is left to weigh.
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"points": [{"n11": 0, "n10": 0, "weight": 1}]}))
        code, out, err = run(capsys, "posterior", *PIT, "--n01", n01,
                             "--prior-file", str(prior))
        assert (code, out) == (EXIT_INFEASIBLE, "")
        assert err.startswith("infeasible: ")
        if n01 == "0":
            assert err == "infeasible: prior assigns zero weight to the entire support\n"

    @pytest.mark.parametrize("n01", [0, 2, 5])
    @pytest.mark.parametrize("target", ["tau", "A"])
    def test_emitted_masses_sum_to_one(self, capsys, n01, target):
        code, out, _ = run(capsys, "posterior", *PIT, "--target", target,
                           "--n01", str(n01))
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "# causalurn.posterior.v1"
        total = sum(float(line.split(",")[1]) for line in lines[2:])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_tau_curve_values(self, capsys):
        _, out, _ = run(capsys, "posterior", *PIT, "--format", "json")
        payload = json.loads(out)
        masses = dict(zip(payload["support"], payload["mass"]))
        # Highest mass at 17/53, right next to the reported median 16/53.
        assert max(masses, key=masses.get) == pytest.approx(17 / 53, abs=1e-9)

    def test_a_curve_mode(self, capsys):
        _, out, _ = run(capsys, "posterior", *PIT, "--target", "A",
                        "--format", "json")
        payload = json.loads(out)
        masses = dict(zip(payload["support"], payload["mass"]))
        assert max(masses, key=masses.get) == 10

    def test_point_mass_prior_file(self, capsys, tmp_path):
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"points": [{"n11": 13, "n10": 17, "weight": 2}]}))
        code, out, _ = run(capsys, "posterior", *PIT, "--prior-file", str(prior),
                           "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["mass"] == [1.0]
        assert payload["support"] == [pytest.approx(17 / 53)]

    @pytest.mark.parametrize("target", ["tau", "A"])
    def test_table_prior_walks_no_run(self, capsys, monkeypatch, tmp_path, target):
        # A table prior takes the pointwise numerator at its own points; the
        # support check walks no run of the likelihood grid.
        def forbidden(*args, **kwargs):
            raise AssertionError("a run of the grid walked")

        monkeypatch.setattr(causalurn.likelihood, "_add_run", forbidden)
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"points": [{"n11": 13, "n10": 17, "weight": 2},
                                                {"n11": 16, "n10": 12, "weight": 0.5}]}))
        code, out, _ = run(capsys, "posterior", *PIT, "--target", target,
                           "--prior-file", str(prior), "--format", "json")
        assert code == EXIT_OK
        assert len(json.loads(out)["mass"]) == 2

    def test_malformed_prior_lists_offenders(self, capsys, tmp_path):
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"points": [
            {"n11": 1, "n10": 2, "weight": 1},
            {"n11": -1, "n10": 2, "weight": 1},
            {"n11": 1, "n10": 2, "weight": "heavy"},
        ]}))
        code, _, err = run(capsys, "posterior", *PIT, "--prior-file", str(prior))
        assert code == EXIT_USAGE
        assert "entry 1" in err
        assert "entry 2" in err
        assert "entry 0" not in err

    @pytest.mark.parametrize("n11,n10,weight", [
        ("13", "17", "null"), ("13", "17", '"1/3"'), ("13", "17", "NaN"),
        ("13", "17", "Infinity"), ("13", "17", "-Infinity"), ("13", "17", "-1"),
        ("13", "17", "true"), ("13", "17", "[1]"), ("-1", "17", "1"), ("13", "1.5", "1"),
    ], ids=["null", "string", "nan", "inf", "-inf", "negative", "true", "list",
            "negative-count", "fractional-count"])
    def test_bad_entry_reads_as_the_prior_rule(self, capsys, tmp_path, n11, n10, weight):
        # The file and Prior state one rule: an offender line is the entry,
        # then exactly the message Prior raises for the same point and weight.
        bad = '{"n11": %s, "n10": %s, "weight": %s}' % (n11, n10, weight)
        prior = tmp_path / "prior.json"
        prior.write_text('{"points": [{"n11": 13, "n10": 17, "weight": 1}, %s]}' % bad)
        entry = json.loads(bad)
        with pytest.raises((TypeError, ValueError)) as raised:
            causalurn.Prior({(entry["n11"], entry["n10"]): entry["weight"]})
        assert run(capsys, "posterior", *PIT, "--prior-file", str(prior)) == (
            EXIT_USAGE, "",
            f"error: malformed prior entries:\nentry 1 {entry!r}: {raised.value}\n")

    @pytest.mark.parametrize("key", ["n11", "n10"])
    def test_true_count_exit_1(self, capsys, tmp_path, key):
        # No count is a bool, in a file or in Prior.
        entry = {"n11": 13, "n10": 17, "weight": 1, key: True}
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"points": [entry]}))
        assert run(capsys, "posterior", *PIT, "--prior-file", str(prior)) == (
            EXIT_USAGE, "", f"error: malformed prior entries:\n"
            f"entry 0 {entry!r}: {key} must be an integer, got True\n")

    def test_repeated_point_weights_add_up(self, capsys, tmp_path):
        outputs = []
        for points in ([(13, 17, 1), (16, 12, 1), (13, 17, 0.5)],
                       [(13, 17, 1.5), (16, 12, 1)], [(13, 17, 0.5), (16, 12, 1)]):
            prior = tmp_path / "prior.json"
            prior.write_text(json.dumps({"points": [
                {"n11": n11, "n10": n10, "weight": w} for n11, n10, w in points]}))
            code, out, _ = run(capsys, "posterior", *PIT, "--prior-file", str(prior))
            assert code == EXIT_OK
            outputs.append(out)
        assert outputs[0] == outputs[1] != outputs[2]

    def test_the_prior_rule_runs_once_per_entry(self, capsys, monkeypatch, tmp_path):
        # The file's entries are checked as they are read, and Prior keeps
        # checked entries as they are: one call per entry, a repeated one too.
        calls = []
        prior_point = causalurn.bayes._prior_point

        def counted(*entry):
            calls.append(entry)
            return prior_point(*entry)

        monkeypatch.setattr(causalurn.bayes, "_prior_point", counted)
        entries = [(13, 17, 1), (16, 12, 0.5), (13, 17, 2)]
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"points": [
            {"n11": n11, "n10": n10, "weight": w} for n11, n10, w in entries]}))
        code, _, _ = run(capsys, "posterior", *PIT, "--prior-file", str(prior))
        assert code == EXIT_OK
        assert calls == entries

    def test_only_a_repeated_point_sums_its_weights(self, capsys, monkeypatch, tmp_path):
        # A weight is added into the prior's table only where its point
        # repeats: a file of distinct points loads with no Fraction sum, and
        # prints the same output.
        from fractions import Fraction

        class Unsummable(Fraction):
            def __add__(self, other):
                raise AssertionError("a weight was summed")

            __radd__ = __add__

        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"points": [
            {"n11": n11, "n10": n10, "weight": w} for n11, n10, w in [(13, 17, 1), (16, 12, 0.5)]]}))
        argv = ("posterior", *PIT, "--prior-file", str(prior))
        expected = run(capsys, *argv)
        prior_point = causalurn.bayes._prior_point

        def unsummable(*entry):
            point, weight = prior_point(*entry)
            return point, Unsummable(weight)

        monkeypatch.setattr(causalurn.bayes, "_prior_point", unsummable)
        assert run(capsys, *argv) == expected
        assert expected[0] == EXIT_OK

    @pytest.mark.parametrize("weight", ["Infinity", "NaN"])
    def test_non_finite_weight_exit_1(self, capsys, tmp_path, weight):
        # json.load accepts these literals as floats; they are not weights.
        prior = tmp_path / "prior.json"
        prior.write_text('{"points": [{"n11": 13, "n10": 17, "weight": %s}]}' % weight)
        code, _, err = run(capsys, "posterior", *PIT, "--prior-file", str(prior))
        assert code == EXIT_USAGE
        assert "finite" in err

    @pytest.mark.parametrize("content", [b"[" * 100_000, b'\xff\xfe{"points": []}'],
                             ids=["deeply-nested", "not-utf-8"])
    def test_undecodable_prior_file_exit_1(self, capsys, tmp_path, content):
        prior = tmp_path / "prior.json"
        prior.write_bytes(content)
        code, out, err = run(capsys, "posterior", *PIT, "--prior-file", str(prior))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: prior file is not valid JSON: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_missing_prior_file(self, capsys):
        code, _, err = run(capsys, "posterior", *PIT, "--prior-file", "/no/such.json")
        assert code == EXIT_USAGE

    def test_negative_n01_exit_1(self, capsys):
        code, _, _ = run(capsys, "posterior", *PIT, "--n01", "-2")
        assert code == EXIT_USAGE

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "posterior", *PIT, "--target", "A",
                           "--n01", "2", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        inputs = payload["input"]
        argv = ["posterior", *map(str, inputs["table"]),
                "--target", inputs["target"], "--n01", str(inputs["n01"]),
                "--format", "json"]
        if inputs["prior_file"] is not None:
            argv += ["--prior-file", inputs["prior_file"]]
        code2, out2, _ = run(capsys, *argv)
        assert code2 == EXIT_OK
        assert out2 == out


class TestAttributable:
    @pytest.mark.parametrize("alpha,shown", [("0", "0.0"), ("nan", "nan")], ids=["0", "nan"])
    def test_alpha_outside_unit_interval_exit_1(self, capsys, alpha, shown):
        assert run(capsys, "attributable", *PIT, "--alpha", alpha) == (
            EXIT_USAGE, "", f"error: alpha must be in (0, 1), got {shown}\n")

    def test_alpha_whose_level_rounds_to_one_exit_1(self, capsys):
        # 1 - 1e-17 rounds to 1.0, a level no interval has; the error names alpha.
        assert run(capsys, "attributable", *PIT, "--alpha", "1e-17") == (
            EXIT_USAGE, "",
            "error: alpha 1e-17 is too close to 0 for an interval level of 1 - alpha\n")

    @pytest.mark.parametrize("alpha", ["1.1102230246251565e-16", "1e-16"], ids=["2^-53", "1e-16"])
    def test_smallest_alphas_with_a_level_below_one(self, capsys, alpha):
        assert run(capsys, "attributable", *PIT, "--alpha", alpha) == (EXIT_OK, (
            "HL estimate of A: {9, 10, 11}\n"
            "99.99999999999999% inversion interval for A: [-14, 18]\n"
            "prediction: 10.381  [2.807, 17.955]  (95%, mse from control-arm rate)\n"
        ), "")

    @pytest.mark.parametrize("alpha,label", [("4e-7", "99.99996"), ("1e-13", "99.99999999999")],
                             ids=["4e-7", "1e-13"])
    def test_level_label_below_one_never_reads_100(self, capsys, alpha, label):
        # 2^-53 and 1e-16 are pinned line by line above.
        code, out, err = run(capsys, "attributable", *PIT, "--alpha", alpha)
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[1].startswith(f"{label}% inversion interval for A: [")

    def test_prediction_level_label_below_one_never_reads_100(self, capsys):
        code, out, err = run(capsys, "attributable", *PIT, "--level", "0.9999996")
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[2].endswith("(99.99996%, mse from control-arm rate)")

    def test_worked_example_report(self, capsys):
        code, out, _ = run(capsys, "attributable", *PIT)
        assert code == EXIT_OK
        assert "{9, 10, 11}" in out
        assert "[2, 16]" in out
        assert "10.381" in out
        assert "[2.807, 17.955]" in out

    def test_compat_flag(self, capsys):
        _, out, _ = run(capsys, "attributable", *PIT, "--compat-paper-mse")
        assert "[1.560, 19.202]" in out

    def test_curve_flag_json(self, capsys):
        _, out, _ = run(capsys, "attributable", *PIT, "--curve",
                        "--format", "json")
        payload = json.loads(out)
        curve = payload["standardized_pvalues"]
        assert sum(curve["mass"]) == pytest.approx(1.0, abs=1e-9)
        assert payload["hl_estimate"] == [9, 10, 11]
        assert payload["retained"] == list(range(2, 17))

    @pytest.mark.parametrize("options", [("--curve", "--format", "json"), ()])
    def test_builds_one_pvalue_curve(self, capsys, monkeypatch, options):
        # Every summary reads one curve, built once per command.
        calls = []
        original = causalurn.attributable.pvalue_curve

        def counted(obs):
            calls.append(obs)
            return original(obs)

        monkeypatch.setattr(causalurn.attributable, "pvalue_curve", counted)
        code, _, _ = run(capsys, "attributable", *PIT, *options)
        assert code == EXIT_OK
        assert calls == [causalurn.ObservedTable(18, 14, 5, 16)]

    def test_usage_error_then_valid_command(self, capsys):
        # main() reuses one parser per process; an error must not leave
        # state behind for the next command.
        code, out, err = run(capsys, "attributable", *PIT, "--format", "xml")
        assert code == EXIT_USAGE
        assert out == ""
        assert "xml" in err
        code, out, _ = run(capsys, "attributable", *PIT, "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["hl_estimate"] == [9, 10, 11]
        assert payload["retained"] == list(range(2, 17))
        assert "standardized_pvalues" not in payload


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "4")
        assert code == EXIT_OK
        assert "PASS" in out
        assert "FAIL" not in out

    def test_vacuous_max_n_is_usage_error(self, capsys):
        # No science table has fewer than 2 units, so nothing would be checked;
        # the command prints the library's message on one line.
        code, out, err = run(capsys, "verify", "--max-n", "1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: max_n must be at least 2, got 1: no design has fewer than 2 units\n"

    @pytest.mark.parametrize("cap,message", [
        ("abc", "must be an integer, got 'abc'"),
        ("0", "must be positive, got 0"),
    ], ids=["abc", "0"])
    def test_bad_enumeration_cap_exit_1(self, capsys, monkeypatch, cap, message):
        monkeypatch.setenv("CAUSALURN_ENUM_CAP", cap)
        code, out, err = run(capsys, "verify", "--max-n", "3")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: CAUSALURN_ENUM_CAP {message}\n"

    def test_failing_suite_exits_3(self, capsys, monkeypatch):
        from fractions import Fraction

        from causalurn import moments

        original = moments._tau_variance  # the kernel population_tau_variance wraps

        def mutated(*margins):
            variance = Fraction(*original(*margins)) + Fraction(1, 7)
            return variance.numerator, variance.denominator

        monkeypatch.setattr(moments, "_tau_variance", mutated)
        code, out, _ = run(capsys, "verify", "--max-n", "3")
        assert code == EXIT_VERIFY
        assert "FAIL" in out


class TestSimulate:
    def test_deterministic_json(self, capsys):
        argv = ["simulate", "13", "10", "0", "30", "--n1", "32",
                "--draws", "5000", "--seed", "11", "--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        code2, out2, _ = run(capsys, *argv)
        assert out == out2
        payload = json.loads(out)
        assert payload["schema"] == "causalurn.simulate.v1"
        assert "PCG64" in payload["rng"]
        assert payload["tau_hat_variance_exact"] == pytest.approx(
            payload["tau_hat_variance"], rel=0.2
        )

    def test_arm_validation(self, capsys):
        code, _, _ = run(capsys, "simulate", "1", "1", "0", "1", "--n1", "3")
        assert code == EXIT_USAGE


class TestGolden:
    @pytest.mark.parametrize("command", sorted(GOLDEN_TEXT))
    def test_text(self, capsys, command):
        expected = "\n".join(GOLDEN_TEXT[command]) + "\n"
        expected = expected.replace("NUMPY_VERSION", numpy.__version__)
        assert run(capsys, *command.split()) == (EXIT_OK, expected, "")

    @pytest.mark.parametrize("command", sorted(GOLDEN_JSON))
    def test_json(self, capsys, command):
        expected = json.dumps(GOLDEN_JSON[command], indent=2) + "\n"
        assert run(capsys, *command.split()) == (EXIT_OK, expected, "")

    @pytest.mark.parametrize("command", sorted(GOLDEN_FILES))
    def test_large_population_file(self, capsys, monkeypatch, command):
        monkeypatch.chdir(DATA.parents[1])
        expected = (DATA / GOLDEN_FILES[command]).read_text()
        assert run(capsys, *command.split()) == (EXIT_OK, expected, "")


class TestUsage:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_exits_0(self, capsys, command):
        assert main([command, "-h"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith(f"usage: causalurn {command}")
        if command in COUNTED:
            assert "N11 N10 N01 N00" in out

    def test_top_level_help_exits_0(self, capsys):
        assert main(["-h"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: causalurn")
        assert all(command in captured.out for command in SUBCOMMANDS)
        assert captured.err == ""

    @pytest.mark.parametrize("command", ["estimate", "sensitivity", "attributable"])
    def test_level_rounding_to_one_exit_1(self, capsys, command):
        # Inside (0, 1), but (1 + level) / 2 rounds to 1.0 in double precision.
        code, out, err = run(capsys, command, *PIT, "--level", "0.9999999999999999")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: level 0.9999999999999999")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["posterior", "99999999999999999999", "1", "1", "1"],
        ["sensitivity", "4", "3", "2", "99999999999999999999", "--n01-max", "2"],
        ["posterior", "1000000000000000", "1", "1", "1"],
        ["sensitivity", "1000000000000000", "1", "1", "1", "--n01-max", "1"],
        ["posterior", "99999999999999999999", "1", "1", "1", "--target", "A"],
        ["posterior", "99999999999999999999", "1", "1", "1", "--target", "A", "--n01", "1"],
    ], ids=["posterior", "sensitivity", "posterior-memory", "sensitivity-memory",
            "a-posterior", "a-posterior-n01-1"])
    def test_counts_too_large_to_evaluate_exit_2(self, capsys, argv):
        # The walks allocate one list slot per n10, which no list this large
        # holds (OverflowError) and no machine can back (MemoryError, about
        # 8 PB at 10^15); the A posterior's rows are counted before any is
        # built, so it ends at once rather than walk 10^20 rows.
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_INFEASIBLE, "")
        assert err == "infeasible: the counts are too large to evaluate\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("counts", [("99999999999999999999", "1", "1", "1"),
                                        ("999999997", "1", "1", "1")], ids=["int64", "1e9"])
    def test_simulate_counts_too_large_to_sample_exit_2(self, capsys, monkeypatch, counts):
        # numpy's sampler takes fewer than 10^9 units; beyond int64 it rejects
        # the counts themselves. Both end before numpy is imported, which is
        # made impossible here.
        monkeypatch.setitem(sys.modules, "numpy", None)
        code, out, err = run(capsys, "simulate", *counts, "--n1", "2", "--draws", "10")
        assert (code, out) == (EXIT_INFEASIBLE, "")
        assert err == "infeasible: the counts are too large to evaluate\n"

    def test_simulate_samples_the_largest_population_numpy_takes(self, capsys):
        code, out, err = run(capsys, "simulate", "999999996", "1", "1", "1", "--n1", "2",
                             "--draws", "10")
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("10 draws, seed 0 (numpy.random.Generator(PCG64(seed=0))")

    def test_counts_too_large_to_walk_still_estimate(self, capsys):
        # The moment estimates need no walk, so they take counts of any size.
        code, out, err = run(capsys, "estimate", "99999999999999999999", "1", "1", "1")
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("tau-hat: 0.500\n")

    @pytest.mark.parametrize("command", COUNTED)
    @pytest.mark.parametrize("given", [0, 2, 3])
    def test_missing_counts_exit_1(self, capsys, command, given):
        argv = [command, *PIT[:given]]
        if command == "simulate":
            argv += ["--n1", "3"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: the following arguments are required: ")
        assert "N00" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,library", [
        (["estimate", *PIT, "--n01", "-1"],
         lambda: causalurn.moments.sensitivity_variance(causalurn.ObservedTable(18, 14, 5, 16), -1)),
        (["simulate", *PIT, "--n1", "0"],
         lambda: causalurn.monte_carlo(causalurn.ScienceTable(18, 14, 5, 16), 0, 100_000, 0)),
        (["simulate", *PIT, "--n1", "53"],
         lambda: causalurn.monte_carlo(causalurn.ScienceTable(18, 14, 5, 16), 53, 100_000, 0)),
        (["simulate", *PIT, "--n1", "3", "--draws", "0"],
         lambda: causalurn.monte_carlo(causalurn.ScienceTable(18, 14, 5, 16), 3, 0, 0)),
        (["simulate", *PIT, "--n1", "3", "--seed", "-1"],
         lambda: causalurn.monte_carlo(causalurn.ScienceTable(18, 14, 5, 16), 3, 100_000, -1)),
        (["verify", "--draws", "0"], lambda: run_verification(8, 0, 0)),
        (["verify", "--seed", "-1"], lambda: run_verification(8, -1, 20_000)),
        (["posterior", *PIT, "--prior-file", "PRIOR"], lambda: causalurn.Prior({(True, 17): 1})),
    ], ids=["estimate-n01", "simulate-n1-0", "simulate-n1-N", "simulate-draws", "simulate-seed",
            "verify-draws", "verify-seed", "prior-true-count"])
    def test_prints_the_library_message(self, capsys, tmp_path, argv, library):
        # Each rule has one statement, in the library; the command line adds
        # only "error: " and, for a prior file, the entry it names.
        with pytest.raises((TypeError, ValueError)) as raised:
            library()
        expected = f"error: {raised.value}\n"
        if "PRIOR" in argv:
            entry = {"n11": True, "n10": 17, "weight": 1}
            prior = tmp_path / "prior.json"
            prior.write_text(json.dumps({"points": [entry]}))
            argv = [str(prior) if arg == "PRIOR" else arg for arg in argv]
            expected = f"error: malformed prior entries:\nentry 0 {entry!r}: {raised.value}\n"
        assert run(capsys, *argv) == (EXIT_USAGE, "", expected)

    @pytest.mark.parametrize("flag,value,message", [
        ("--draws", "0", "error: draws must be positive, got 0\n"),
        ("--draws", "-5", "error: draws must be positive, got -5\n"),
        ("--seed", "-1", "error: seed must be nonnegative, got -1\n"),
    ], ids=["draws-0", "draws-negative", "seed-negative"])
    @pytest.mark.parametrize("command", [
        ["verify", "--max-n", "9"],
        ["simulate", *PIT, "--n1", "3"],
    ], ids=["verify", "simulate"])
    def test_draws_and_seed_checked_before_work(self, capsys, monkeypatch,
                                                command, flag, value, message):
        # verify counts no design and simulate loads no sampler: numpy cannot
        # be imported here.
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the options were checked")

        monkeypatch.setattr("causalurn.oracle._assignment_count", no_work)
        monkeypatch.setattr("causalurn.oracle._design_laws", no_work)
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert run(capsys, *command, flag, value) == (EXIT_USAGE, "", message)


@pytest.mark.parametrize("command", ["estimate", "sensitivity", "posterior", "attributable"])
def test_commands_that_never_sample_leave_numpy_unloaded(command):
    # numpy is imported by the sampler alone, so the other commands start
    # without paying for it.
    src = str(Path(causalurn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = (f"import sys\nfrom causalurn.cli import main\ncode = main({[command, *PIT]!r})\n"
              "print(code, 'numpy' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                          timeout=60)
    assert proc.stderr.decode().split() == [str(EXIT_OK), "False"]


class TestClosedOutput:
    def test_closed_pipe_exits_without_traceback(self):
        # The read end is closed before the command starts, so its first
        # write to stdout fails every time.
        src = str(Path(causalurn.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "causalurn.cli", "estimate", *PIT],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert b"Traceback" not in proc.stderr
        assert b"BrokenPipeError" not in proc.stderr
        assert proc.returncode == EXIT_BROKEN_PIPE

    def test_no_stdout_at_all(self, monkeypatch):
        # A process started with stdout closed has sys.stdout None; print
        # then writes nothing and the command still succeeds.
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["estimate", *PIT]) == EXIT_OK
