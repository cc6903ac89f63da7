#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values as
a share of their median, next to the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload serve-small --runs 5 [--first-seed 1]

Run from the repository root. Prints one line per run and a summary table;
exits 1 if any run is incorrect or any spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", "0",
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        context = json.loads(lines[-2])["context"] if len(lines) >= 2 else {}
        ok &= result["correct"]
        row = {k: v["value"] for k, v in result["metrics"].items()}
        for k, v in row.items():
            values.setdefault(k, []).append(v)
        shown = " ".join(f"{k}={v:.6g}" for k, v in row.items())
        host = f"steal={context.get('steal_frac', float('nan')):.4f} load={context.get('loadavg_1m_before')}"
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {host} {shown}", flush=True)

    print(f"\n{'metric':28} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / abs(med)
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and not spread <= bound:
            flag = "  OVER BOUND"
            ok = False
        elif bound is not None and spread > bound / 3:
            flag = "  over bound/3"
        print(f"{name:28} {med:14.6g} {spread:8.4f} {bound if bound is not None else '-':>6}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
