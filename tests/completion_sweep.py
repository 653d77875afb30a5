"""Sweep regime_switch's completion, the last table draws a tilted tail
estimate integrates instead of drawing, over gamma and n.

For each (gamma, n) in {0.2, 0.3, 0.45} x {400, 1600, 6400} it prints the
draws integrated (D), the time to build the completion (`_completion`,
the block ladder already built), the time to estimate 4 tail rows (x =
0.5, 1, 1.5, 2, each at its `choose_tilt` lambda) at 4,096 paths each,
the mean (SE/p_hat/1%)^2 of those rows, the cost per unit of precision:
(build + rows) x mean (SE/p_hat/1%)^2, and the estimator that ran with its
replicates R (randomized quasi-Monte Carlo; "-" where a tree has none).
Times are medians over the repeats, each on a fresh model; the variance is
averaged over the repeats' seeds.  Run as a script, against the sources in
this tree's src/:

    python tests/completion_sweep.py [--repeats R] [--work W[,W...]]

`--work` repeats the sweep at each value of `alias.COMPLETION_WORK`, the
bound on the completion's spectral work ("inf" for none)."""
from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
from pathlib import Path

GAMMAS = (0.2, 0.3, 0.45)
NS = (400, 1600, 6400)
GRID = (0.5, 1.0, 1.5, 2.0)
PATHS = 4096


def measure(models, montecarlo, choose_tilt, gamma, n, repeats):
    """(D, build ms, rows ms, mean (SE/p/1%)^2, estimator) of one config."""
    builds, rows, weights, draws = [], [], [], None
    for seed in range(repeats):
        model = models.make_regime_switch(n, gamma)
        model._blocks
        t = time.perf_counter()
        draws = model._completion[0]
        builds.append(time.perf_counter() - t)
        lams = [choose_tilt(model, x).lam for x in GRID]
        t = time.perf_counter()
        ests = [montecarlo.estimate_tail_tilted(model, x, lam, PATHS, seed, row=i)
                for i, (x, lam) in enumerate(zip(GRID, lams))]
        rows.append(time.perf_counter() - t)
        weights.append(statistics.fmean((e.std_err / e.p_hat / 0.01) ** 2 for e in ests))
    return (draws, 1e3 * statistics.median(builds), 1e3 * statistics.median(rows),
            statistics.fmean(weights), ests[0].estimator.partition(", ")[2] or "plain MC")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--work", default=None)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from mdmart import alias, models, montecarlo
    from mdmart.tilt import choose_tilt

    works = [None] if args.work is None else [float(w) for w in args.work.split(",")]
    for work in works:
        if work is not None:
            alias.COMPLETION_WORK = math.inf if math.isinf(work) else int(work)
        print(f"COMPLETION_WORK = {getattr(alias, 'COMPLETION_WORK', 'none')}, "
              f"R = {getattr(montecarlo, 'REPLICATES', '-')}")
        print(f"{'gamma':>5} {'n':>5} {'D':>4} {'build ms':>9} {'rows ms':>8} "
              f"{'(SE/p/1%)^2':>12} {'cost ms':>9}  estimator")
        for gamma in GAMMAS:
            for n in NS:
                d, build, rows, weight, est = measure(models, montecarlo, choose_tilt, gamma, n,
                                                      args.repeats)
                print(f"{gamma:5.2f} {n:5d} {d:4d} {build:9.2f} {rows:8.2f} {weight:12.4f} "
                      f"{(build + rows) * weight:9.2f}  {est}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
