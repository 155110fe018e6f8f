"""Run the benchmark over several seeds and summarize its spread.

From the root of a checkout:

    python3 perfbench/collect.py --seeds 1-10 [--workloads det4,palindrome] \
        [--trace 0] [--out perfbench/baseline.json]

Runs `run.py` once per (workload, seed), one run at a time, with the
`run_seconds` of BENCHMARK.json.  For every metric it prints the median,
the quartiles (statistics.quantiles, n=4) and the spread, (Q3 - Q1) /
median; end-to-end metrics are also compared with a third of their
bound.  `--out` writes the raw results and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="multi-seed benchmark summary")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {}
        for name, first in runs[0]["metrics"].items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            summary[name] = {"unit": first["unit"], **stats}
            note = ""
            if name in bounds and name != "setup_s":
                ok = stats["spread"] < bounds[name] / 3
                steady &= ok
                note = "ok" if ok else f"SPREAD ABOVE {bounds[name] / 3:.4f}"
            print(f"  {name:34s} median {stats['median']:14.6f} q1 {stats['q1']:14.6f} "
                  f"q3 {stats['q3']:14.6f} spread {stats['spread']:.4f} {note}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
