"""Summarise one set of run records, or compare two.

    python3 perfbench/compare.py SET              # medians, quartiles, spreads
    python3 perfbench/compare.py BASE CHANGE      # verdict per workload and metric

A set is a directory of run records written by run.py (``--record``) or
sweep.py.  Quartiles are ``statistics.quantiles(values, n=4)``; a spread is
(q3 - q1) / median.

One set: every end-to-end metric of every workload with its spread against
the metric's bound from BENCHMARK.json ("steady" below a third of the bound),
the per-layer medians of the traced runs, failed ops, and whether all runs
of one (workload, seed) wrote the same artifacts.  Exits 1 if a spread
exceeds its bound, an op failed or a digest differs.

Two sets, by the rules for claiming a gain in a small sandbox:
  improved    CHANGE wins at least 9/10 of the pairs (runs paired by seed,
              ties count for neither) and the medians differ by more than
              BASE's own q3 - q1;
  unresolved  otherwise, when either set's spread exceeds the bound, unless
              every CHANGE run reads better than every BASE run;
  worse       CHANGE's median is worse than BASE's by more than the bound;
  no-worse    everything else.
Per-layer medians of the traced runs are listed with their change, and each
shared (workload, seed) says whether the two sets wrote identical artifacts.
Exits 1 if an end-to-end metric is "worse" or "unresolved".
"""
from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{(workload, trace): {seed: record}}"""
    runs = defaultdict(dict)
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        if "result" in rec:
            runs[(rec["workload"], rec["trace"])][rec["seed"]] = rec
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def value(rec, metric):
    return rec["result"]["metrics"][metric]["value"]


def values_of(recs, metric):
    return [value(r, metric) for r in recs.values()]


def digest_problems(runs):
    by_seed = defaultdict(set)
    for (name, _), recs in runs.items():
        for seed, rec in recs.items():
            by_seed[(name, seed)].add(rec["digest"])
    return [f"{name} seed {seed}: {len(d)} different artifact digests"
            for (name, seed), d in sorted(by_seed.items()) if len(d) > 1]


def summarise(spec, runs):
    bad = digest_problems(runs)
    for (name, trace), recs in sorted(runs.items()):
        failed = sum(r["result"]["failed"] for r in recs.values())
        attempted = sum(r["result"]["attempted"] for r in recs.values())
        print(f"\n{name}  trace={trace}  runs={len(recs)}  failed ops {failed}/{attempted}")
        if failed:
            bad.append(f"{name}: {failed} failed ops")
        if trace:
            for m in spec["per_layer"]:
                vals = values_of(recs, m["name"])
                print(f"  {m['name']:34s} {statistics.median(vals):14.6g} {m['unit']}")
            continue
        for m in spec["end_to_end"]:
            vals = values_of(recs, m["name"])
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            state = ("steady" if s < m["bound"] / 3 else
                     "within bound" if s <= m["bound"] else "WIDER THAN BOUND")
            if s > m["bound"]:
                bad.append(f"{name} {m['name']}: spread {s:.3f} > bound {m['bound']}")
            print(f"  {m['name']:16s} median {med:12.6g} {m['unit']:5s} "
                  f"q1 {q1:10.6g} q3 {q3:10.6g} spread {s:.4f} "
                  f"(bound {m['bound']}) {state}")
    for line in bad:
        print(f"PROBLEM {line}")
    return 1 if bad else 0


def verdict(m, base, change):
    lower = m["better"] == "lower"

    def better(a, b):           # a reads better than b
        return a < b if lower else a > b

    seeds = sorted(set(base) & set(change))
    if seeds:
        pairs = [(base[s], change[s]) for s in seeds]
    else:
        pairs = list(zip([base[s] for s in sorted(base)],
                         [change[s] for s in sorted(change)]))
    wins = sum(better(c, b) for b, c in pairs)
    bq1, bmed, bq3 = quartiles(list(base.values()))
    cmed = statistics.median(change.values())
    if pairs and wins >= 0.9 * len(pairs) and abs(cmed - bmed) > bq3 - bq1 \
            and better(cmed, bmed):
        return "improved", wins, len(pairs)
    if max(spread(list(base.values())), spread(list(change.values()))) > m["bound"]:
        if all(better(c, b) for c in change.values() for b in base.values()):
            return "no-worse", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    worse_by = (cmed - bmed) / abs(bmed) if bmed else 0.0
    if not lower:
        worse_by = -worse_by
    return ("worse" if worse_by > m["bound"] else "no-worse"), wins, len(pairs)


def compare(spec, base, change):
    status = 0
    for (name, trace) in sorted(set(base) & set(change)):
        b, c = base[(name, trace)], change[(name, trace)]
        print(f"\n{name}  trace={trace}  runs {len(b)} vs {len(c)}")
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        for m in metrics:
            bv = {s: value(r, m["name"]) for s, r in b.items()}
            cv = {s: value(r, m["name"]) for s, r in c.items()}
            bmed, cmed = statistics.median(bv.values()), statistics.median(cv.values())
            delta = f"{(cmed - bmed) / abs(bmed):+.2%}" if bmed else "n/a"
            if trace:
                print(f"  {m['name']:34s} {bmed:12.6g} -> {cmed:12.6g} {m['unit']:6s} {delta}")
                continue
            v, wins, n = verdict(m, bv, cv)
            bq1, _, bq3 = quartiles(list(bv.values()))
            cq1, _, cq3 = quartiles(list(cv.values()))
            print(f"  {m['name']:16s} {bmed:10.6g} [{bq1:.6g}, {bq3:.6g}] -> "
                  f"{cmed:10.6g} [{cq1:.6g}, {cq3:.6g}] {m['unit']:5s} {delta:>8s} "
                  f"wins {wins}/{n}  {v}")
            if v in ("worse", "unresolved"):
                status = 1
        for seed in sorted(set(b) & set(c)):
            same = b[seed]["digest"] == c[seed]["digest"]
            print(f"  seed {seed}: artifacts {'identical' if same else 'DIFFER'}")
    return status


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sets = [load(d) for d in sys.argv[1:]]
    if len(sets) == 1:
        return summarise(spec, sets[0])
    return compare(spec, *sets)


if __name__ == "__main__":
    sys.exit(main())
