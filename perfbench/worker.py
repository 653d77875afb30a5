"""One workload in one fresh, single-threaded Python process.

Started by run.py.  It imports ``mdmart.cli`` from the checkout's ``src``,
builds the workload's inputs from the seed and prints one ``ready`` line;
with ``--setup-only`` it stops there.  Otherwise it runs whole passes over
the workload's operations until ``--seconds`` are used up, checks every
output after each pass, and prints one JSON line with every pass it
measured.  Before the first operation, after the last and between them
every REF_EVERY_S seconds of operation time, it times the reference kernel
(reference.py), and each pass reports its wall times also calibrated by
the kernel's times around each operation.

With ``--trace 1`` passes alternate untraced and traced, so the same
process yields the tracing overhead and a byte-for-byte comparison of the
traced artifacts with the untraced ones.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REF_EVERY_S = 0.25


def import_cli():
    """Import mdmart.cli from the checkout; (seconds, modules loaded)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    before = len(sys.modules)
    t0 = time.perf_counter()
    import mdmart.cli
    import_s = time.perf_counter() - t0
    src = os.path.join(ROOT, "src", "mdmart")
    if os.path.dirname(os.path.abspath(mdmart.cli.__file__)) != src:
        raise SystemExit(f"mdmart was imported from {mdmart.cli.__file__}, not {src}")
    return import_s, len(sys.modules) - before


def fingerprint(obj):
    """A canonical, exact rendering of a library result for the digest."""
    import dataclasses

    import numpy as np
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (int, np.integer, str)) or obj is None:
        return obj if not isinstance(obj, np.integer) else int(obj)
    if isinstance(obj, np.ndarray):
        return [fingerprint(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [fingerprint(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): fingerprint(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj):
        return {f.name: fingerprint(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    return repr(obj)


class Workload:
    def __init__(self, name, seed):
        import workloads
        self.w = workloads
        # artifacts go to a directory of this process's own, under the same
        # relative name in every run, so that their bytes (which echo the
        # --out flag) compare across runs and concurrent runs cannot collide
        self.home = os.path.join(ROOT, ".perfbench", "work", str(os.getpid()))
        self.out_dir = os.path.join("out", name)
        os.makedirs(os.path.join(self.home, self.out_dir))
        os.chdir(self.home)
        self.ops = workloads.WORKLOADS[name](seed, self.out_dir)
        self.tracer = None

    def run_pass(self, traced):
        """Run every op once; time, check and fingerprint them."""
        import mdmart
        from reference import REF_S, reference_time
        w = self.w
        shutil.rmtree(self.out_dir)
        os.makedirs(self.out_dir)
        if traced:
            if self.tracer is None:
                import tracer
                self.tracer = tracer.Tracer()
            self.tracer.reset()
            self.tracer.install()
            api = self.tracer.api
        else:
            api = mdmart
        gc.collect()
        done, walls = {}, {}
        # the reference kernel's time at points between the ops; each op is
        # calibrated by the mean of the two points around its segment
        points, segment, scale = [reference_time()], [], {}
        try:
            for op in self.ops:
                t0 = time.perf_counter()
                try:
                    res = op.run(api, done)
                except Exception as exc:  # an op that raises is a failed op
                    res = w.OpError(exc)
                walls[op.name] = time.perf_counter() - t0
                done[op.name] = res
                segment.append(op.name)
                if (sum(walls[n] for n in segment) >= REF_EVERY_S
                        or op is self.ops[-1]):
                    points.append(reference_time())
                    for name in segment:
                        scale[name] = REF_S / ((points[-2] + points[-1]) / 2)
                    segment = []
        finally:
            if traced:
                self.tracer.uninstall()

        digest = hashlib.sha256()
        problems, ttp, paths_to_1pct, art_bytes, unparsable = {}, 0.0, 0.0, 0, 0
        calibrated_ttp = 0.0
        for op in self.ops:
            res = done[op.name]
            if isinstance(res, w.OpError):
                problems[op.name] = [res.text]
                digest.update(f"{op.name}\0error\0{res.text}\0".encode())
                continue
            if op.cli:
                for name in res.new_files:
                    with open(os.path.join(self.out_dir, name), "rb") as fh:
                        res.artifacts[name] = fh.read()
                    art_bytes += len(res.artifacts[name])
                    unparsable += w.unparsable_fields(name, res.artifacts[name])
                    digest.update(f"{name}\0".encode() + res.artifacts[name])
                digest.update(f"{op.name}\0{res.code}\0{res.output}\0".encode())
            else:
                digest.update(f"{op.name}\0{json.dumps(fingerprint(res))}\0".encode())
            try:
                found = op.check(res, done)
                rows = op.rows(res)
            except Exception as exc:  # a check that cannot read the output fails the op
                found, rows = [f"check raised {type(exc).__name__}: {exc}"], []
            if any(p <= 0.0 for p, _, _ in rows):
                found.append("tail estimate p_hat = 0")
            elif rows:
                weight = sum((se / p / 0.01) ** 2 for p, se, _ in rows) / len(rows)
                ttp += walls[op.name] * weight
                calibrated_ttp += walls[op.name] * scale[op.name] * weight
                paths_to_1pct += sum(n * (se / p / 0.01) ** 2 for p, se, n in rows)
            if found:
                problems[op.name] = found
        out = {
            "traced": traced,
            "wall_s": sum(walls.values()),
            "calibrated_wall_s": sum(wall * scale[n] for n, wall in walls.items()),
            "ref_s": statistics.median(points),
            "time_to_1pct_s": ttp,
            "calibrated_time_to_1pct_s": calibrated_ttp,
            "paths_to_1pct": paths_to_1pct,
            "ops": len(self.ops),
            "problems": problems,
            "digest": digest.hexdigest(),
            "artifact_bytes": art_bytes,
            "artifact_unparsable_fields": unparsable,
        }
        if traced:
            out["layers"] = self.tracer.layer_metrics()
        return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import_s, import_modules = import_cli()
    work = Workload(args.workload, args.seed)
    print("ready " + json.dumps({"import_s": import_s,
                                 "import_modules": import_modules}), flush=True)
    try:
        if not args.setup_only:
            measure(work, args)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work.home)


def measure(work, args):
    start = time.perf_counter()
    kinds = (False, True) if args.trace else (False,)
    passes, longest = [], 0.0
    while True:
        t0 = time.perf_counter()
        passes.append(work.run_pass(kinds[len(passes) % len(kinds)]))
        longest = max(longest, time.perf_counter() - t0)
        if (len(passes) >= len(kinds)
                and time.perf_counter() - start + longest > args.seconds):
            break

    # determinism guard: every pass, traced or not, writes the same bytes
    first = passes[0]["digest"]
    for p in passes:
        if p["digest"] != first:
            p["problems"]["artifact digest"] = [f"{p['digest']} != pass 0 {first}"]

    import numpy
    import scipy
    print(json.dumps({
        "passes": passes,
        "measured_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }))


if __name__ == "__main__":
    main()
