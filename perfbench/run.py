#!/usr/bin/env python3
"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload W --seed 1 --seconds 30 --trace 0

Builds the library and the workload program (tmbench) from the sources of
the checkout into .bench_build/, measures set-up time in several fresh
processes, runs the workload for --seconds, checks every full-quality
output byte for byte against its golden reference, and prints each metric
by name with its unit. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer metrics of BENCHMARK.json.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import benchlib

ROOT = os.path.dirname(benchlib.HERE)
BUILD = os.path.join(ROOT, ".bench_build")
TMBENCH = os.path.join(BUILD, "tmbench")
WORKLOADS = ("frame_paper", "serve_remote", "stream_video")
SETUP_RUNS = 9


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build tmbench; cmake's output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError(f"no tmhls sources in {ROOT}")
    configure = ["cmake", "-S", benchlib.HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr, cwd=ROOT).returncode:
        # A cache from another source tree: start the build directory over.
        shutil.rmtree(BUILD, ignore_errors=True)
        subprocess.run(configure, stdout=sys.stderr, cwd=ROOT, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "tmbench", "-j",
                    str(os.cpu_count() or 1)],
                   stdout=sys.stderr, cwd=ROOT, check=True)


def tmbench(args, timeout):
    """Run tmbench and parse the JSON of its last stdout line."""
    proc = subprocess.run([TMBENCH] + args, stdout=subprocess.PIPE,
                          cwd=ROOT, timeout=timeout, check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(metrics, spec_group):
    """Print every metric by name with its unit, in BENCHMARK.json order."""
    for m in spec_group:
        value, unit, note = metrics[m["name"]]
        print(f"  {m['name']:<32} {value:>14.4f} {unit:<6} {note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append this run's record to a JSONL file "
                                  "(input for compare.py)")
    args = ap.parse_args()

    spec = benchlib.load_spec()
    build()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = [] if args.trace else [tmbench(["setup"] + common, 60)["setup_s"]
                                   for _ in range(SETUP_RUNS)]
    started = time.monotonic()
    obs = tmbench(["run"] + common + ["--seconds", str(args.seconds),
                                      "--trace", str(args.trace)],
                  max(args.seconds * 3 + 30, 60))
    obs["workload"] = args.workload
    v = obs["values"]
    attempted = int(v["attempted"])
    failed = benchlib.failure_count(v)
    labels = obs["labels"]

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}  "
          f"(run {time.monotonic() - started:.1f} s)")
    print(f"  input_hash {labels['input_hash']}  "
          f"schedule_hash {labels['schedule_hash']}")
    print("  plan: " + "  ".join(
        f"t{t} -> {labels['plan.backend.t' + t]} "
        f"x{labels['plan.threads.t' + t]}" for t in ("1", "4")))
    print(f"  attempted {attempted}  failed {failed}  (errors "
          f"{int(v['errors'])}, output mismatches {int(v['mismatches'])}, "
          f"shed {int(v['shed'])}, expired {int(v['expired'])}, "
          f"sequence gaps {int(v['gaps'])})")
    if args.trace:
        group = spec["per_layer"]
        metrics = benchlib.per_layer(obs)
    else:
        group = spec["end_to_end"]
        metrics = benchlib.end_to_end(obs, setup)
        print(f"  setup_s samples: "
              + " ".join(f"{s:.4f}" for s in setup))
    describe(metrics, group)
    if not args.trace:
        print("  not gated (per-layer in traced runs):")
        for name, (value, unit, note) in benchlib.tails(obs).items():
            print(f"  {name:<32} {value:>14.4f} {unit:<6} {note}")

    result = {
        "correct": int(v["mismatches"]) == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": metrics[m["name"]][1]}
                    for m in group},
    }
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "input_hash": labels["input_hash"],
                "schedule_hash": labels["schedule_hash"],
                "result": result}) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
