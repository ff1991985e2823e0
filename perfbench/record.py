"""Record one trajectory point: every workload, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/record.py perfbench/trajectory/<name>.json [--note TEXT]

Runs ``perfbench/run.py`` once per workload untraced and once traced, at
seed 0 (the seed the reference outputs are kept for) and BENCHMARK.json's
``run_seconds``, and writes the machine record, each workload's end-to-end
metrics (with the per-run samples), per-layer metrics and report digest to
one JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 0


def bench(workload, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    tagged = {}
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")
        if tag in ("machine", "samples", "report_digest"):
            tagged[tag] = rest
    return json.loads(lines[-1]), tagged


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out")
    parser.add_argument("--note", default="")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    record = {"seed": SEED, "seconds": seconds, "note": args.note, "machine": None, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        e2e, tagged = bench(workload, seconds, 0)
        layers, _ = bench(workload, seconds, 1)
        record["machine"] = json.loads(tagged["machine"])
        record["workloads"][workload] = {
            "correct": e2e["correct"] and layers["correct"],
            "attempted": e2e["attempted"] + layers["attempted"],
            "failed": e2e["failed"] + layers["failed"],
            "report_digest": tagged.get("report_digest"),
            "samples": json.loads(tagged["samples"]),
            "end_to_end": {k: v["value"] for k, v in e2e["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in layers["metrics"].items()},
        }
        print(f"recorded {workload}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    names = list(record["workloads"])
    print(f"{'metric':16} {'unit':9}" + "".join(f" {n:>24}" for n in names))
    for metric, unit in units.items():
        print(f"{metric:16} {unit:9}" + "".join(f" {record['workloads'][n]['end_to_end'][metric]:24.6g}" for n in names))
    rates = [record["workloads"][n]["failed"] / record["workloads"][n]["attempted"] for n in names]
    print(f"{'error_rate':16} {'ratio':9}" + "".join(f" {r:24.6g}" for r in rates))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
