"""Run the benchmark over several seeds and write a baseline file.

    python3 perfbench/baseline.py --commit REV --seeds 101-110 --out perfbench/baseline.json

Runs every workload of BENCHMARK.json once per seed with ``--trace 0``, then
once with ``--trace 1`` on the first seed, one run at a time, and writes
each run's result with the median, quartiles and spread (quartile distance
over median) of every end-to-end metric.
"""

import argparse
import json
import statistics
import subprocess
import sys

from paths import ROOT


def run(workload, seed, seconds, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    return lines, json.loads(lines[-1])


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--commit", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("101-110"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    doc = {
        "commit": args.commit,
        "command": " ".join(spec["command"]) + f" --workload W --seed N --seconds {seconds} --trace T",
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            lines, result = run(workload, seed, seconds, 0)
            sha = next(line for line in lines if line.startswith("sha256 ")).split()[1:]
            runs.append({
                "seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "sha256": dict(kv.split("=") for kv in sha),
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            })
            print(workload, seed, runs[-1]["metrics"], flush=True)
        lines, traced = run(workload, args.seeds[0], seconds, 1)
        notes = [line for line in lines[1:-1] if " = " not in line]
        doc["workloads"][workload] = {
            "environment": lines[0].split(" ", 3)[3],
            "summary": {
                name: summary([r["metrics"][name] for r in runs]) for name in runs[0]["metrics"]
            },
            "runs": runs,
            "traced": {
                "seed": args.seeds[0], "correct": traced["correct"], "notes": notes,
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            },
        }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
