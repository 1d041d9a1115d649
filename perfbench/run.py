"""causalurn benchmark: one closed-loop client driving the CLI in process.

    python3 perfbench/run.py --workload desk-exact --seed 1 --seconds 26 --trace 0

Run from anywhere inside a source checkout; the program under test is
``src/causalurn`` of that checkout. The client calls
``causalurn.cli.main(argv)`` with stdout and stderr captured and sends the
next command only when the previous one has returned. A pass runs one
entry of every slot of the workload (see ``workloads.py``), picked by
``--seed``; passes repeat until the next one would overrun ``--seconds``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics,
with the trace overhead. Either way every output is checked against the
outputs recorded with the benchmark (``check.py``); a mismatch counts as a
failed command and never stops the run. The last stdout line is the JSON
result; the line before it is run metadata, also written with the spans
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import tracer as tracing  # noqa: E402

SETUP_SAMPLES = 11
# Times are reported in reference seconds: measured seconds times CAL_REF_S
# over the mean time of ``calibrate`` runs interleaved with the measured
# work. CAL_REF_S is the median time of ``calibrate`` on the machine the
# benchmark was defined on, a shared 2-vCPU Intel Xeon virtual machine with
# Python 3.11. That machine's speed moved by a third over tens of seconds
# with other tenants' load; on identical work, scaling cut the spread
# (quartile distance over median) of 28 s runs from 0.15 to 0.03.
CAL_REF_S = 0.010
CAL_SHARE = 0.05
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
# Ten runs of two passes, fewer than any workload makes in a 26 s run.
POOLED_PASSES = 20
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import causalurn.cli; "
              "causalurn.cli.build_parser()")


class BenchError(Exception):
    pass


def load_cli():
    """Import ``causalurn.cli`` from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    if not (src / "causalurn" / "cli.py").is_file():
        raise BenchError(f"no causalurn sources under {src}")
    sys.path.insert(0, str(src))
    import causalurn.cli as cli
    if Path(cli.__file__).resolve().parent != (src / "causalurn").resolve():
        raise BenchError(f"imported causalurn from {cli.__file__}, not from {src}")
    return cli


# ------------------------------------------------------------------ inputs


def load_inputs(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"no recorded inputs for workload {workload!r} ({path})")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_outputs(workload: str) -> dict:
    with gzip.open(REFERENCE_DIR / f"{workload}.out.json.gz", "rt", encoding="utf-8") as handle:
        return json.load(handle)


def select(inputs: dict, seed: int) -> list[dict]:
    """One entry per slot, chosen by the seed; the same seed, the same pass."""
    rng = random.Random(f"{inputs['workload']}:{seed}")
    return [slot[0] if len(slot) == 1 else rng.choice(slot) for slot in inputs["slots"]]


def pass_commands(entries: list[dict]) -> list[tuple[str, list[str]]]:
    """(reference key, argv) for every command of a pass, in order."""
    return [(f"{entry['id']}#{i}", argv)
            for entry in entries for i, argv in enumerate(entry["commands"])]


def write_priors(entries: list[dict]) -> None:
    for entry in entries:
        if entry.get("prior") is not None:
            path = ROOT / entry["prior_file"]
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(entry["prior"]), encoding="utf-8")


# ---------------------------------------------------------------- running


def run_command(cli, argv: list[str]) -> tuple[object, str]:
    """Exit code and stdout of one CLI command run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a wrong answer, not the end of the run
            code = f"exception {type(exc).__name__}: {exc}"
    return code, out.getvalue()


def calibrate() -> float:
    """Seconds for a fixed mix of big-integer binomials, float logs and
    Fraction sums, the operations causalurn's hot paths are made of. It runs
    no causalurn code, so only the machine's speed moves it."""
    start = time.perf_counter()
    logs = 0.0
    terms = {}
    for n in range(150, 200):
        for k in range(0, n, 5):
            c = math.comb(n, k)
            logs += math.log(c)
            terms[n, k] = Fraction(c, n + 1)
    sum(terms.values(), Fraction(0))
    return time.perf_counter() - start


def run_pass(cli, commands, calibrations: list, tracer=None):
    """Run one pass; return (seconds, per-command seconds, outputs).

    ``calibrate`` runs before the pass and after each command until
    calibration has taken CAL_SHARE of the command time so far, adding to
    ``calibrations``; its time is part of no latency.
    """
    latencies, outputs = [], []
    calibrations.append(calibrate())
    owed = 0.0
    for _, argv in commands:
        begin = time.perf_counter()
        if tracer is None:
            result = run_command(cli, argv)
        else:
            result = tracer.call("cli.main", run_command, cli, argv)
        latencies.append(time.perf_counter() - begin)
        outputs.append(result)
        owed += latencies[-1] * CAL_SHARE
        while owed > 0:
            calibrations.append(calibrate())
            owed -= calibrations[-1]
    return sum(latencies), latencies, outputs


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds for fresh interpreters to import causalurn and build the
    parser, and the calibrations taken around them."""
    def once():
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start
    once()  # byte-compiles the sources on a fresh checkout
    samples, calibrations = [], [calibrate()]
    for _ in range(SETUP_SAMPLES):
        samples.append(once())
        calibrations.append(calibrate())
    return samples, calibrations


def scale(calibrations: list[float]) -> float:
    """Factor from measured seconds to reference seconds."""
    return CAL_REF_S / statistics.mean(calibrations)


def tail(latencies: list[float], commands_per_pass: int) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it in this run) of the tail latency.

    The percentile is the highest of TAIL_LADDER with at least ten samples
    beyond it when pooled over POOLED_PASSES passes. It depends on the
    workload's command count only, not on how many passes fit in this run,
    so it cannot jump from one latency cluster to another between runs.
    """
    pooled = POOLED_PASSES * commands_per_pass
    pct = max(p for p in TAIL_LADDER
              if pooled - math.ceil(p / 100 * pooled) >= 10 or p == TAIL_LADDER[0])
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return pct, ordered[rank - 1], len(ordered) - rank


class Checker:
    """Counts executions whose output disagrees with the reference, or, in a
    traced pass, differs by a byte from the first untraced pass."""

    def __init__(self, commands):
        self.commands = commands
        self.seen: list[dict] = [{} for _ in commands]  # (output, differs) -> executions

    def add(self, outputs, baseline=None) -> None:
        for i, (seen, output) in enumerate(zip(self.seen, outputs)):
            key = (output, baseline is not None and output != baseline[i])
            seen[key] = seen.get(key, 0) + 1

    def failures(self, reference: dict) -> tuple[int, int, list[str]]:
        attempted = failed = 0
        wrong = []
        for (key, argv), seen in zip(self.commands, self.seen):
            ref_exit, ref_out = reference[key]
            for ((code, out), differs), executions in seen.items():
                attempted += executions
                if differs or not (check.same_output(ref_exit, ref_out, code, out)
                                   and check.pins_hold(argv, code, out)):
                    failed += executions
                    wrong.append(" ".join(argv))
        return attempted, failed, wrong


def measure(cli, commands, seconds: float, traced: bool):
    """Closed-loop passes until the next would overrun ``seconds``. In a
    traced run untraced and traced passes alternate."""
    untraced = {"wall": [], "latencies": []}
    traced_passes = {"wall": [], "stats": []}
    calibrations = []
    checker = Checker(commands)
    tracer = tracing.Tracer() if traced else None
    started = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        wall, latencies, baseline = run_pass(cli, commands, calibrations)
        untraced["wall"].append(wall)
        untraced["latencies"].extend(latencies)
        checker.add(baseline)
        if traced:
            tracer.reset(len(traced_passes["wall"]))
            tracer.install()
            try:
                wall, _, outputs = run_pass(cli, commands, calibrations, tracer)
            finally:
                tracer.uninstall()
            traced_passes["wall"].append(wall)
            traced_passes["stats"].append(tracer.stats)
            checker.add(outputs, baseline)
        now = time.perf_counter()
        if now - started + (now - cycle_start) > seconds:
            break
    return untraced, traced_passes, calibrations, checker, tracer


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "causalurn").glob("*.py")))


def layer_results(traced_passes, untraced, entries, factor) -> tuple[dict, bool]:
    """Per-layer metrics; times in reference seconds through ``factor``."""
    attributable = sum(1 for _, argv in pass_commands(entries) if argv[0] == "attributable")
    per_pass = [
        {name: value * factor if name.endswith("_s") else value
         for name, value in tracing.layer_metrics(stats, attributable).items()}
        for stats in traced_passes["stats"]
    ]
    first = per_pass[0]
    repeat = all(p[name] == first[name] for p in per_pass for name in tracing.COUNT_METRICS)
    metrics = {}
    for name in first:
        if name in tracing.COUNT_METRICS:
            metrics[name] = first[name]
        else:
            metrics[name] = statistics.median(p[name] for p in per_pass)
    metrics["trace_overhead_s"] = factor * (statistics.median(traced_passes["wall"])
                                            - statistics.median(untraced["wall"]))
    return metrics, repeat


def bench(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return (result line, metadata)."""
    cli = load_cli()
    inputs = load_inputs(workload)
    entries = select(inputs, seed)
    write_priors(entries)
    commands = pass_commands(entries)
    setup, setup_calibrations = ([], []) if trace else measure_setup()
    run_command(cli, ["estimate", *check.WORKED_ARGS])  # warm the argparse/json paths
    untraced, traced_passes, calibrations, checker, tracer = measure(cli, commands, seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, wrong = checker.failures(load_outputs(workload))

    import causalurn
    import numpy
    factor = scale(calibrations)
    latencies = [latency * factor for latency in untraced["latencies"]]
    meta = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "causalurn": causalurn.__version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "entries": [entry["id"] for entry in entries],
        "commands_per_pass": len(commands),
        "fail_ratio": failed / attempted,
        "wrong": sorted(set(wrong))[:10],
        "reference_factor": factor,
        "calibrations": len(calibrations),
        "measured_wall_s": statistics.median(untraced["wall"]),
        "command_p50_s": {key: statistics.median(latencies[i::len(commands)])
                          for i, (key, _) in enumerate(commands)},
    }
    if trace:
        metrics, repeat = layer_results(traced_passes, untraced, entries, factor)
        meta["samples"] = {"traced_passes": len(traced_passes["wall"]),
                           "untraced_passes": len(untraced["wall"])}
        meta["counts_repeat_across_passes"] = repeat
        meta["spans"] = len(tracer.spans)
        meta["spans_file"] = write_spans(workload, seed, tracer)
    else:
        pct, tail_value, beyond = tail(latencies, len(commands))
        metrics = {
            "setup_s": statistics.median(setup) * scale(setup_calibrations),
            "wall_s": statistics.median(untraced["wall"]) * factor,
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_value,
            "peak_rss_mb": peak_rss_mb,
        }
        meta["op_tail_percentile"] = pct
        meta["op_tail_samples_beyond"] = beyond
        meta["samples"] = {"setup_s": len(setup), "wall_s": len(untraced["wall"]),
                           "op_p50_s": len(latencies), "op_tail_s": len(latencies),
                           "peak_rss_mb": 1}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    return result, meta


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "per_command")):
        return "ratio"
    return "count"


def write_spans(workload: str, seed: int, tracer) -> str:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for pass_no, name, start, end, parent in tracer.spans:
            handle.write(json.dumps({"pass": pass_no, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        result, meta = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps({k: v for k, v in meta.items() if k != "command_p50_s"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
