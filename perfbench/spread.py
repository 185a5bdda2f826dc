#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--seeds 1-10] [--seconds 20] [--trace 0]
                                [--workload NAME ...]

For every workload and end-to-end metric it prints the median of the runs
and the distance between the first and third quartile as a share of the
median (quartiles as Python's statistics.quantiles(values, n=4) gives
them), which is the run-to-run noise the bounds in BENCHMARK.json must
cover. Runs go one at a time, through the command in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    out = []
    for part in spec.split(","):
        a, _, b = part.partition("-")
        out.extend(range(int(a), int(b or a) + 1))
    return out


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", default="0")
    p.add_argument("--workload", nargs="*", default=[w["name"] for w in bench["workloads"]])
    a = p.parse_args()
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in a.workload:
        values = {}
        for s in seeds(a.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(a.seconds), "--trace", a.trace]
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if r.returncode != 0:
                sys.exit(f"{w} seed {s}: exit {r.returncode}\n{r.stderr[-2000:]}")
            res = json.loads(r.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {s}: {res['failed']} of {res['attempted']} jobs failed")
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{w} seed {s}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        for k, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            b = bound.get(k)
            note = f" (bound {b}, {spread / b:.2f} of it)" if b else ""
            print(f"{w}\t{k}\tmedian {med:.6g}\tspread {spread:.4f}{note}", flush=True)


if __name__ == "__main__":
    main()
