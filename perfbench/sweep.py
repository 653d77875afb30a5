"""Run the benchmark over several seeds and keep every run record.

    python3 perfbench/sweep.py OUT_DIR [--seeds 1-10] [--traced-seeds 1]

Runs run.py once per (seed, workload) untraced, and once more traced for
each of ``--traced-seeds``, one after another, every workload for
BENCHMARK.json's ``run_seconds``, and writes each run record
to OUT_DIR/<workload>-seed<N>-trace<T>.json.  ``compare.py OUT_DIR``
summarises the set; ``compare.py BASE_DIR OUT_DIR`` compares two.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",") if s]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out_dir")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--traced-seeds", default="1")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    os.makedirs(args.out_dir, exist_ok=True)
    runs = [(s, w, 0) for s in seed_list(args.seeds) for w in names]
    runs += [(s, w, 1) for s in seed_list(args.traced_seeds) for w in names]
    for seed, name, trace in runs:
        record = os.path.join(args.out_dir, f"{name}-seed{seed}-trace{trace}.json")
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--record", record]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        print(f"{name} seed={seed} trace={trace} exit={proc.returncode} {last}",
              file=sys.stderr, flush=True)


if __name__ == "__main__":
    main()
