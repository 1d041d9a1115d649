"""Command-line behavior: output values, formats, exit codes, round-trips."""

import json
import os
import subprocess
import sys
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
        assert (code, out, err) == (EXIT_USAGE, "", "error: --n01 must be nonnegative\n")

    def test_bad_level_exit_1(self, capsys):
        code, _, _ = run(capsys, "estimate", *PIT, "--level", "1.5")
        assert code == EXIT_USAGE


class TestSensitivity:
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

    def test_internal_posterior_error_is_not_printed_as_infeasible(self, capsys, monkeypatch):
        # Only an empty support makes a Bayes column infeasible; any other
        # error inside the posterior ends the command.
        def broken(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr("causalurn.cli.bayes.tau_posterior", broken)
        assert run(capsys, "sensitivity", *PIT, "--n01-max", "1") == (
            EXIT_USAGE, "", "error: boom\n"
        )


class TestPosterior:
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

    @pytest.mark.parametrize("weight", ["Infinity", "NaN"])
    def test_non_finite_weight_exit_1(self, capsys, tmp_path, weight):
        # json.load accepts these literals as floats; they are not weights.
        prior = tmp_path / "prior.json"
        prior.write_text('{"points": [{"n11": 13, "n10": 17, "weight": %s}]}' % weight)
        code, _, err = run(capsys, "posterior", *PIT, "--prior-file", str(prior))
        assert code == EXIT_USAGE
        assert "finite" in err

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
        # One p-value numerator per s in [n01, n01 + N1]: N1 + 1 = 33 calls.
        calls = []
        original = causalurn.attributable._pvalue_numerator

        def counted(obs, s):
            calls.append(s)
            return original(obs, s)

        monkeypatch.setattr(causalurn.attributable, "_pvalue_numerator", counted)
        code, _, _ = run(capsys, "attributable", *PIT, *options)
        assert code == EXIT_OK
        assert sorted(calls) == list(range(5, 38))

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
        # No science table has fewer than 2 units, so nothing would be checked.
        code, out, err = run(capsys, "verify", "--max-n", "1")
        assert code == EXIT_USAGE
        assert "all identities hold" not in out
        assert "--max-n" in err

    def test_failing_suite_exits_3(self, capsys, monkeypatch):
        from fractions import Fraction

        from causalurn import moments

        original = moments.population_tau_variance
        monkeypatch.setattr(
            moments, "population_tau_variance",
            lambda science, n1: original(science, n1) + Fraction(1, 7),
        )
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

    @pytest.mark.parametrize("flag,value,message", [
        ("--draws", "0", "error: --draws must be positive\n"),
        ("--draws", "-5", "error: --draws must be positive\n"),
        ("--seed", "-1", "error: --seed must be nonnegative\n"),
    ], ids=["draws-0", "draws-negative", "seed-negative"])
    @pytest.mark.parametrize("command", [
        ["verify", "--max-n", "9"],
        ["simulate", *PIT, "--n1", "3"],
    ], ids=["verify", "simulate"])
    def test_draws_and_seed_checked_before_work(self, capsys, monkeypatch,
                                                command, flag, value, message):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the options were checked")

        monkeypatch.setattr("causalurn.cli.verify.run_verification", no_work)
        monkeypatch.setattr("causalurn.cli.oracle.monte_carlo", no_work)
        assert run(capsys, *command, flag, value) == (EXIT_USAGE, "", message)


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
