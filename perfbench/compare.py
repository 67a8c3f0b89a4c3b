#!/usr/bin/env python3
"""Compare two sets of benchmark runs, per workload and per metric.

    python3 perfbench/compare.py PARENT CHANGE
    python3 perfbench/compare.py summarize RUNS [--label TEXT] > baseline.json

PARENT and CHANGE are JSONL files written by `run.py --out`, or a
baseline.json made by `summarize` (which embeds its runs). For each
workload and metric the report gives both sides' medians and quartiles,
the fraction of pairs the change won (ties count for neither; runs pair by
seed when both sides used the same seeds, otherwise every run pairs with
every run) and a verdict:

  improved     the change won >= 90% of pairs and the medians differ by
               more than the parent's interquartile distance
  no worse     the change's median is within the metric's bound of the
               parent's (end-to-end metrics only)
  regressed    worse than the bound allows, with spreads inside the bound
               or every change run worse than every parent run
  unresolved   none of the above can be told apart from noise

There is no combined score.
"""

import argparse
import json
import os
import platform
import sys

import benchlib


def load_runs(path):
    """Runs from a run.py --out JSONL file or a summarize baseline."""
    with open(path) as f:
        text = f.read()
    try:
        return json.loads(text)["runs"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return [json.loads(line) for line in text.splitlines() if line.strip()]


def pairs(a_runs, b_runs):
    """(a, b) value pairs: by seed when both sides cover the same seeds."""
    a_by_seed = {r["seed"]: r for r in a_runs}
    b_by_seed = {r["seed"]: r for r in b_runs}
    if set(a_by_seed) == set(b_by_seed) and len(a_by_seed) == len(a_runs):
        return [(a_by_seed[s], b_by_seed[s]) for s in sorted(a_by_seed)]
    return [(a, b) for a in a_runs for b in b_runs]


def verdict(a, b, wins, bound, better):
    """Verdict for parent values `a` and change values `b` (see module
    doc); `wins` is the fraction of pairs the change won."""
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = benchlib.median(a), benchlib.median(b)
    q1, _, q3 = benchlib.quartiles(a)
    if wins >= 0.9 and abs(mb - ma) > (q3 - q1):
        return "improved"
    if bound is None:
        losses = sum(1 for x in b for y in a if sign * (x - y) > 0)
        if losses >= 0.9 * len(a) * len(b) and abs(mb - ma) > (q3 - q1):
            return "regressed"
        return "unresolved"
    all_better = max(sign * x for x in b) < min(sign * y for y in a)
    wide = any(s is None or s > bound
               for s in (benchlib.spread(a), benchlib.spread(b)))
    worse_by = sign * (mb - ma) / abs(ma) if ma else 0.0
    if worse_by <= bound and (not wide or all_better):
        return "no worse"
    if worse_by > bound:
        all_worse = min(sign * x for x in b) > max(sign * y for y in a)
        if not wide or all_worse:
            return "regressed"
    return "unresolved"


def compare(a_runs, b_runs, spec, out=sys.stdout):
    specs = {0: spec["end_to_end"], 1: spec["per_layer"]}
    workloads = sorted({r["workload"] for r in a_runs + b_runs})
    for trace, metrics in specs.items():
        for w in workloads:
            a = [r for r in a_runs
                 if r["workload"] == w and r["trace"] == trace]
            b = [r for r in b_runs
                 if r["workload"] == w and r["trace"] == trace]
            if not a or not b:
                continue
            ps = pairs(a, b)
            mismatched = [
                pa["seed"] for pa, pb in ps
                if pa["seed"] == pb["seed"] and
                (pa["input_hash"], pa["schedule_hash"]) !=
                (pb["input_hash"], pb["schedule_hash"])]
            kind = "per-layer" if trace else "end-to-end"
            print(f"\n{w} ({kind}): parent {len(a)} runs, change {len(b)} runs,"
                  f" {len(ps)} pairs", file=out)
            if mismatched:
                print(f"  WARNING: seeds {mismatched} saw different load "
                      f"(input or schedule hash differs)", file=out)
            print(f"  {'metric':<30} {'parent median [q1, q3]':>30} "
                  f"{'change median [q1, q3]':>30} {'won':>6}  verdict",
                  file=out)
            for m in metrics:
                name = m["name"]
                va = [r["result"]["metrics"][name]["value"] for r in a]
                vb = [r["result"]["metrics"][name]["value"] for r in b]
                sign = 1.0 if m["better"] == "lower" else -1.0
                won = sum(1 for pa, pb in ps if sign * (
                    pb["result"]["metrics"][name]["value"] -
                    pa["result"]["metrics"][name]["value"]) < 0)
                wins = won / len(ps)
                qa, qb = benchlib.quartiles(va), benchlib.quartiles(vb)
                v = verdict(va, vb, wins, m.get("bound"), m["better"])
                print(f"  {name:<30} {qa[1]:>12.4f} [{qa[0]:.4f}, {qa[2]:.4f}]"
                      f" {qb[1]:>12.4f} [{qb[0]:.4f}, {qb[2]:.4f}]"
                      f" {wins:>6.2f}  {v}", file=out)


def host():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "machine": platform.machine(), "system": platform.system()}


def summarize(runs, spec, label):
    summary = {}
    for r in runs:
        group = spec["per_layer"] if r["trace"] else spec["end_to_end"]
        for m in group:
            key = (r["workload"], r["trace"], m["name"])
            summary.setdefault(key, []).append(
                r["result"]["metrics"][m["name"]]["value"])
    table = {}
    for (w, trace, name), values in sorted(summary.items()):
        q1, q2, q3 = benchlib.quartiles(values)
        table.setdefault(w, {})[name] = {
            "median": q2, "q1": q1, "q3": q3,
            "spread": benchlib.spread(values), "runs": len(values)}
    return {"label": label, "host": host(), "summary": table, "runs": runs}


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "summarize":
        ap = argparse.ArgumentParser()
        ap.add_argument("cmd")
        ap.add_argument("runs")
        ap.add_argument("--label", default="")
        args = ap.parse_args()
        json.dump(summarize(load_runs(args.runs), benchlib.load_spec(),
                            args.label), sys.stdout, indent=1)
        print()
        return
    ap = argparse.ArgumentParser(description="Compare two sets of runs.")
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()
    compare(load_runs(args.parent), load_runs(args.change),
            benchlib.load_spec())


if __name__ == "__main__":
    main()
