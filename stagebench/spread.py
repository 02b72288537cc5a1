#!/usr/bin/env python3
"""Run-to-run spread of the stage-graph benchmark.

Runs the command of BENCHMARK.json once per seed on each named workload
and prints, for every end-to-end metric, the median and the distance
between the first and third quartiles as a share of the median, next to
the bound BENCHMARK.json fixes and a third of it.

    python3 stagebench/spread.py --seeds 1-10 [--workloads e3_dense,short_blocks]

Run it from the repository root. The benchmark must be steady: every
spread except setup_s's below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for name in names:
        values = {}
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for k, v in values.items():
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(k)
            flag = ""
            if bound is not None and k != "setup_s" and spread >= bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:16} {k:24} median {med:12.4f}  spread {spread:7.2%}"
                  + (f"  bound {bound:.2f} (third {bound / 3:.3f})" if bound else "") + flag)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
