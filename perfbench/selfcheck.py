"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py [--seed N]

1. A wrong answer is caught: with ``attributable.hl_estimate`` shifted by one
   in this process, a desk-exact pass must count failed commands.
2. Tracing changes nothing: on every workload a traced pass prints
   byte-identical outputs to an untraced pass.
3. Counts repeat: every per-layer count of two traced passes at one seed is
   equal.
4. No program, no result: run.py in a directory holding only BENCHMARK.json
   and the benchmark's files exits non-zero without printing a result.

Exits 1 and names the failed check when one fails.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys

import run
import tracer as tracing
import workloads


def inputs_for(workload: str, seed: int):
    entries = run.select(run.load_inputs(workload), seed)
    run.write_priors(entries)
    return entries, run.pass_commands(entries)


def wrong_answer_is_caught(cli, seed: int) -> str | None:
    attributable = sys.modules["causalurn.attributable"]
    original = attributable.hl_estimate
    attributable.hl_estimate = lambda obs: tuple(v + 1 for v in original(obs))
    try:
        _, commands = inputs_for("desk-exact", seed)
        _, _, outputs = run.run_pass(cli, commands, [])
    finally:
        attributable.hl_estimate = original
    checker = run.Checker(commands)
    checker.add(outputs)
    attempted, failed, _ = checker.failures(run.load_outputs("desk-exact"))
    if failed == 0:
        return "shifted hl_estimate passed the correctness gate"
    print(f"  injected fault: {failed} of {attempted} commands failed")
    return None


def traced_pass(cli, commands):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, _, outputs = run.run_pass(cli, commands, [], tracer)
    finally:
        tracer.uninstall()
    return outputs, tracer.stats


def tracing_is_transparent(cli, workload: str, seed: int) -> str | None:
    _, commands = inputs_for(workload, seed)
    _, _, plain = run.run_pass(cli, commands, [])
    first, stats_a = traced_pass(cli, commands)
    second, stats_b = traced_pass(cli, commands)
    if first != plain or second != plain:
        return f"{workload}: traced outputs differ from untraced outputs"
    attributable = sum(1 for _, argv in commands if argv[0] == "attributable")
    counts_a = tracing.layer_metrics(stats_a, attributable)
    counts_b = tracing.layer_metrics(stats_b, attributable)
    moved = [n for n in tracing.COUNT_METRICS if counts_a[n] != counts_b[n]]
    if moved:
        return f"{workload}: counts differ between traced passes: {moved}"
    print(f"  {workload}: {len(commands)} outputs identical traced and untraced, "
          f"{len(tracing.COUNT_METRICS)} counts repeat")
    return None


def bare_directory_fails() -> str | None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "desk-exact", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return "run.py without the program exited 0 or printed a result"
    print(f"  bare directory: exit {done.returncode}, {done.stderr.strip()}")
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark self-checks")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    os.chdir(run.ROOT)
    cli = run.load_cli()
    problems = [wrong_answer_is_caught(cli, args.seed)]
    problems += [tracing_is_transparent(cli, w, args.seed) for w in workloads.WORKLOADS]
    problems.append(bare_directory_fails())
    problems = [p for p in problems if p]
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-checks passed" if not problems else f"{len(problems)} self-check(s) failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
