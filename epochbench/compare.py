#!/usr/bin/env python3
"""Summarise one or two sets of epoch-benchmark runs.

    python3 epochbench/compare.py SET_A            # medians and quartiles
    python3 epochbench/compare.py SET_A SET_B      # ... and do they agree?

A set is a directory of run outputs named <workload>.<anything>.out, the
layout sweep.py writes; the last line of each file is the run's result
JSON. For every workload and metric it prints the median, the first and
third quartiles (statistics.quantiles, n=4) and the spread, (q3 - q1) /
median. With two sets it also checks, against the bounds in
BENCHMARK.json, that each end-to-end metric's spread is within its bound
in both sets (setup_s excepted), that set B's median is not worse than set
A's by more than the bound, and that the share of failed operations is the
same; it exits 1 when any of these fail. Standard library only.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_set(path):
    """{workload: [result dict, ...]} from a directory of run outputs."""
    runs = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".out"):
            continue
        workload = name.split(".", 1)[0]
        with open(os.path.join(path, name)) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("%s: no result line" % name, file=sys.stderr)
            continue
        runs.setdefault(workload, []).append(result)
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def failed_share(results):
    return sorted({r["failed"] / r["attempted"] for r in results})


def describe(label, runs):
    print("== %s" % label)
    for workload, results in sorted(runs.items()):
        bad = sum(1 for r in results if not r["correct"])
        print("%s: %d runs, %d incorrect, failed share %s" % (
            workload, len(results), bad, failed_share(results)))
        names = []
        for r in results:
            names += [n for n in r["metrics"] if n not in names]
        for name in names:
            values = [r["metrics"][name]["value"] for r in results
                      if name in r["metrics"]]
            unit = results[0]["metrics"].get(name, {}).get("unit", "")
            med, q1, q3, spread = summary(values)
            print("  %-30s %14.6g %-10s q1 %-12.6g q3 %-12.6g spread %.4f"
                  % (name, med, unit, q1, q3, spread))


def compare(spec, a, b):
    ok = True
    for workload in sorted(set(a) | set(b)):
        if workload not in a or workload not in b:
            print("%s: only in one set" % workload)
            ok = False
            continue
        if failed_share(a[workload]) != failed_share(b[workload]):
            print("%s: failed share differs: %s vs %s" % (
                workload, failed_share(a[workload]),
                failed_share(b[workload])))
            ok = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = [r["metrics"][name]["value"] for r in a[workload]
                  if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b[workload]
                  if name in r["metrics"]]
            if not va or not vb:
                print("%s %s: missing" % (workload, name))
                ok = False
                continue
            ma, _, _, sa = summary(va)
            mb, _, _, sb = summary(vb)
            worse = (mb - ma) / ma if metric["better"] == "lower" \
                else (ma - mb) / ma
            verdict = []
            if worse > bound:
                verdict.append("B worse by %.3f > %.3f" % (worse, bound))
            if name != "setup_s" and max(sa, sb) > bound:
                verdict.append("spread %.3f/%.3f > %.3f" % (sa, sb, bound))
            ok = ok and not verdict
            print("%-20s %-24s A %-12.6g B %-12.6g change %+.4f  %s" % (
                workload, name, ma, mb, (mb - ma) / ma,
                "; ".join(verdict) or "ok"))
    return ok


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = [load_set(p) for p in argv[1:]]
    for path, runs in zip(argv[1:], sets):
        describe(path, runs)
    if len(sets) == 2:
        print("== agreement (bounds from BENCHMARK.json)")
        return 0 if compare(spec, *sets) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
