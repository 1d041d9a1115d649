"""Command-line behavior: output values, formats, exit codes, round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
        from causalurn.verify import run_verification

        def broken(max_n, seed, mc_draws):
            return run_verification(
                max_n=max_n, seed=seed, mc_draws=mc_draws,
                tau_variance=lambda science, n1: (
                    moments.population_tau_variance(science, n1) + Fraction(1, 7)
                ),
            )

        monkeypatch.setattr("causalurn.cli.verify.run_verification", broken)
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
