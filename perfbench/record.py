"""Record the benchmark inputs and their reference outputs.

    python3 perfbench/record.py [workload ...]

Generates every workload's entries from a fixed generator seed, runs every
command once with the checkout's ``src/causalurn``, and writes
``reference/<workload>.json`` (slots, entries, argv lists, prior tables)
and ``reference/<workload>.out.json.gz`` (exit code and stdout per
command). Seeded families are sorted by the recorded cost of their entries
and cut into slots, so the entries of one slot cost about the same. Run it
only at the commit whose outputs define correct; the outputs are the gate.
"""

from __future__ import annotations

import gzip
import json
import os
import random
import sys
import time

import run
import workloads

GENERATOR_SEED = 20171705


def build(cli, workload: str) -> tuple[dict, dict]:
    rng = random.Random(f"{GENERATOR_SEED}:{workload}")
    slots, outputs = [], {}

    def entry(entry_id, make):
        commands, prior = make(rng, entry_id)
        record = {"id": entry_id, "commands": commands, "prior": prior}
        if prior is not None:
            record["prior_file"] = workloads.prior_path(entry_id)
            run.write_priors([record])
        cost = 0.0
        for i, argv in enumerate(commands):
            start = time.perf_counter()
            outputs[f"{entry_id}#{i}"] = run.run_command(cli, argv)
            cost += time.perf_counter() - start
        record["cost_s"] = round(cost, 4)
        return record

    for spec in workloads.WORKLOADS[workload]:
        if spec[0] == "fixed":
            _, name, make = spec
            slots.append([entry(f"{workload}.{name}", make)])
            continue
        _, family, count, make = spec
        family_entries = [entry(f"{workload}.{family}-{i}", make)
                          for i in range(count * workloads.ALTERNATIVES)]
        family_entries.sort(key=lambda e: e["cost_s"])
        for k in range(count):
            slots.append(family_entries[k * workloads.ALTERNATIVES:(k + 1) * workloads.ALTERNATIVES])
    return {"workload": workload, "generator_seed": GENERATOR_SEED, "slots": slots}, outputs


def write_inputs(inputs: dict, handle) -> None:
    """The inputs as JSON with one entry per line, for readable diffs."""
    slots = ",\n".join(
        "  [\n" + ",\n".join("   " + json.dumps(entry) for entry in slot) + "\n  ]"
        for slot in inputs["slots"])
    handle.write(f'{{"workload": {json.dumps(inputs["workload"])}, '
                 f'"generator_seed": {inputs["generator_seed"]},\n "slots": [\n{slots}\n ]}}\n')


def main(argv: list[str]) -> int:
    os.chdir(run.ROOT)  # prior paths in the argv lists are relative to the root
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    cli = run.load_cli()
    names = argv or list(workloads.WORKLOADS)
    for workload in names:
        start = time.perf_counter()
        inputs, outputs = build(cli, workload)
        with open(run.REFERENCE_DIR / f"{workload}.json", "w", encoding="utf-8") as handle:
            write_inputs(inputs, handle)
        with gzip.GzipFile(run.REFERENCE_DIR / f"{workload}.out.json.gz", "wb", mtime=0) as raw:
            raw.write(json.dumps(outputs, sort_keys=True).encode("utf-8"))
        bad = sorted(k for k, (code, _) in outputs.items() if code not in (0, 2))
        print(f"{workload}: {sum(map(len, inputs['slots']))} entries, {len(outputs)} commands, "
              f"{time.perf_counter() - start:.1f} s; unexpected exits: {bad}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
