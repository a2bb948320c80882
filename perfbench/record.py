"""Record a set of benchmark runs into one JSON file.

    python3 perfbench/record.py --out perfbench/results/NAME.json [--seeds 1-10]

Runs ``run.py`` once per workload of BENCHMARK.json and per seed with tracing
off, one at a time, then once per workload with tracing on at the first
seed.  The file keeps the environment, every run's result and per-
operation medians, and for each end-to-end metric the median and the
quartile spread (Q3 - Q1) / median over the seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import benchmark_file  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr}")
    lines = out.stdout.strip().splitlines()
    record = {"seed": seed, "trace": trace, "result": json.loads(lines[-1])}
    for line in lines[:-1]:
        if line.startswith("# failure "):
            record.setdefault("failures", []).append(line[len("# failure "):])
        elif line.startswith("# "):
            key, _, value = line[2:].partition(" ")
            record[key] = json.loads(value)
    return record


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args()

    bench = benchmark_file()
    seeds = parse_seeds(args.seeds)
    doc: dict = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(one_run(name, seed, bench["run_seconds"], 0))
            print(name, seed, json.dumps(runs[-1]["result"]["metrics"]), flush=True)
        traced = one_run(name, seeds[0], bench["run_seconds"], 1)
        doc.setdefault("env", runs[0]["env"])
        doc["workloads"][name] = {
            "spread": {m["name"]: spread([r["result"]["metrics"][m["name"]]["value"]
                                          for r in runs])
                       for m in bench["end_to_end"]},
            "failed": sum(r["result"]["failed"] for r in runs + [traced]),
            "attempted": sum(r["result"]["attempted"] for r in runs + [traced]),
            "runs": runs,
            "traced": traced,
        }
        print(name, json.dumps(doc["workloads"][name]["spread"]), flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
