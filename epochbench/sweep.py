#!/usr/bin/env python3
"""Run the epoch benchmark over several seeds and keep every run's output.

    python3 epochbench/sweep.py --out runs/a --seeds 1-10
    python3 epochbench/sweep.py --out runs/b --seeds 11-20 --workloads wide_mix

Each run's stdout is written to OUT/<workload>.seed<N>.out, the layout
compare.py reads. Runs are sequential, one process at a time, from the
checkout root; run length and the command come from BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="",
                        help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    os.makedirs(args.out, exist_ok=True)
    status = 0
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace)]
            path = os.path.join(args.out, "%s.seed%d.out" % (workload, seed))
            with open(path, "w") as out:
                rc = subprocess.call(cmd, stdout=out, cwd=ROOT)
            last = open(path).read().strip().splitlines()[-1:] or [""]
            print("%s seed %d: rc %d %s" % (workload, seed, rc, last[0][:160]),
                  flush=True)
            status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
