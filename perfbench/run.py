"""The mdmart benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record PATH]

Run from the root of a checkout.  The workloads and metrics are declared in
BENCHMARK.json; the operations of each workload are in workloads.py.

Each run starts SETUP_SPAWNS fresh single-threaded Python processes, with a
reference spawn (reference.py) before and after each.  Each one times
process start -> ``import mdmart.cli`` -> inputs built; ``setup_s`` is the
median of those times, each calibrated by the reference spawns around it.  One more
process runs the workload's operations back to back, in whole passes, for S
seconds (worker.py).  Every output is checked against the library's own
exact references; an op fails if it raises, exits non-zero or fails its
check, and ``ops_ok_frac`` is the share that did not.

``wall_s`` is the wall time of one pass over the operations and
``time_to_1pct_s`` the time the pass's tail estimates would need to reach 1%
relative error, the sum over estimates of (op wall / estimates in op) x
(SE / p_hat / 1%)^2.  Both are calibrated operation by operation by the
reference kernel timed between them, and the run reports the median over
its untraced passes.  Calibration is what makes them steady on a shared
virtual machine, where other tenants' load changes single-core speed by up
to 2x for minutes; the uncalibrated medians are printed and recorded too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of the least slowed traced pass (tracer.py), and as
``trace.overhead_s`` the median calibrated wall of the traced passes minus
that of the untraced ones.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run
record (machine, versions, thread pinning, seed, commit, sample counts,
every pass) goes to ``--record``, by default under ``.perfbench/records/``;
compare.py reads those records.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
from statistics import median

from reference import REF_SPAWN_S, REFERENCE_SPAWN

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
SETUP_SPAWNS = 5
DEADLINE_S = 170.0          # the whole run, spawns included
# BLAS/OpenMP pools pinned to one thread; a fixed hash seed keeps set and
# dict iteration order the same in every process
PINNED_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def spawn(argv, deadline):
    """Start ``python3 argv`` and kill it at ``deadline`` (perf_counter
    seconds); return (seconds until its ready line, ready info, last stdout
    line)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if code != 0 or not line.startswith("ready "):
        fail(f"python3 {' '.join(argv)} exited with code {code}")
    return ready_s, json.loads(line[len("ready "):]), rest[-1] if rest else None


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", help="where to write the run record")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if not os.path.isfile(os.path.join(ROOT, "src", "mdmart", "cli.py")):
        fail(f"no mdmart sources under {os.path.join(ROOT, 'src')}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds < 1:
        fail("need --seed >= 0 and --seconds >= 1")

    deadline = time.perf_counter() + DEADLINE_S
    base = [WORKER, "--workload", args.workload, "--seed", str(args.seed)]
    # set-up spawns alternate with reference spawns; each is calibrated by
    # the mean of the reference spawns on either side of it
    setups, ref_before = [], spawn(["-c", REFERENCE_SPAWN], deadline)[0]
    for _ in range(SETUP_SPAWNS):
        ready_s, info, _ = spawn(base + ["--setup-only"], deadline)
        ref_after = spawn(["-c", REFERENCE_SPAWN], deadline)[0]
        ref_s = (ref_before + ref_after) / 2
        setups.append({"wall_s": ready_s, "ref_s": ref_s,
                       "calibrated_s": ready_s * REF_SPAWN_S / ref_s, **info})
        ref_before = ref_after
    _, _, last = spawn(base + ["--seconds", str(args.seconds),
                               "--trace", str(args.trace)], deadline)
    if last is None:
        fail("the worker printed no result")
    run = json.loads(last)
    passes = run["passes"]

    attempted = sum(p["ops"] for p in passes)
    # a digest mismatch fails every op of that pass
    failed = sum(p["ops"] if "artifact digest" in p["problems"] else len(p["problems"])
                 for p in passes)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    def calibrated(p, key="wall_s"):
        return p["calibrated_" + key]

    timings = {"setup_s": median(s["calibrated_s"] for s in setups),
               "wall_s": median(calibrated(p) for p in plain),
               "time_to_1pct_s": median(calibrated(p, "time_to_1pct_s") for p in plain),
               "raw_setup_s": median(s["wall_s"] for s in setups),
               "raw_wall_s": median(p["wall_s"] for p in plain),
               "raw_time_to_1pct_s": median(p["time_to_1pct_s"] for p in plain),
               "ops_failed_frac": failed / attempted}
    if args.trace == 0:
        values = {
            "setup_s": timings["setup_s"],
            "wall_s": timings["wall_s"],
            "time_to_1pct_s": timings["time_to_1pct_s"],
            "peak_rss_mb": run["peak_rss_mb"],
            "ops_ok_frac": 1.0 - failed / attempted,
        }
        declared = spec["end_to_end"]
    else:
        # every layer figure from one pass, the least slowed traced one, so
        # that they add up to its wall time, trace.wall_s
        best = min(traced, key=calibrated)
        values = dict(best["layers"])
        values.update({
            "cli.import_s": median(s["import_s"] for s in setups),
            "cli.import_modules": median(s["import_modules"] for s in setups),
            "cli.artifact_bytes": best["artifact_bytes"],
            "cli.artifact_unparsable_fields": best["artifact_unparsable_fields"],
            "montecarlo.paths_to_1pct": best["paths_to_1pct"],
            # calibrated, so that passes run at different speeds compare;
            # below the run's noise it can read negative
            "trace.overhead_s": median(calibrated(p) for p in traced) - timings["wall_s"],
            "trace.wall_s": best["wall_s"],
        })
        declared = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
        "machine": {"cpu_model": cpu_model(), "nproc": os.cpu_count(),
                    "platform": platform.platform(), **run["versions"]},
        "threads": PINNED_ENV,
        "samples": {"setup_spawns": len(setups), "passes": len(plain),
                    "traced_passes": len(traced), "measured_s": run["measured_s"]},
        "setups": setups,
        "timings": timings,
        "passes": passes,
        "digest": passes[0]["digest"],
        "result": result,
    }
    path = args.record or os.path.join(
        ROOT, ".perfbench", "records",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for p in passes:
        for op, found in p["problems"].items():
            print(f"FAIL {op}: {'; '.join(found)}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if args.trace == 0:
        for name in ("raw_setup_s", "raw_wall_s", "raw_time_to_1pct_s"):
            print(f"{args.workload} {name} = {timings[name]:.6g} s (uncalibrated)")
        print(f"{args.workload} ops_failed_frac = {timings['ops_failed_frac']:.6g} frac")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
