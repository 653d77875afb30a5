"""Quantile coupling: realize W = H(Phi(Z)) on the same space as a standard
normal Z and measure how far the pair drifts apart.

The generalized inverse H(s) = inf{x : F(x) >= s} is left-continuous; ties
resolve by the inf convention, so lattice atoms are reproduced exactly."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom, norm

from .montecarlo import seeded_chunks

# normal draws per chunk; fixed, because the chunking is part of the stream
# layout that makes a report a pure function of (n, budget, seed)
COUPLE_CHUNK = 1 << 16


class ExactBinomialQuantile:
    """Quantile function of X_n = (2 S - n)/sqrt(n), S ~ Bin(n, 1/2),
    from the exact binomial CDF on the lattice."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        k = np.arange(n + 1)
        self.values = (2.0 * k - n) / math.sqrt(n)
        self.cdf = binom.cdf(k, n, 0.5)
        self.cdf[-1] = 1.0

    def evaluate_batch(self, s):
        if np.any((s <= 0.0) | (s >= 1.0)):
            raise ValueError("s must lie in (0, 1)")
        idx = np.searchsorted(self.cdf, s, side="left")
        return self.values[idx]

    def atom_probabilities(self) -> np.ndarray:
        """P(W = values[k]) for the coupled W, via Phi-interval measure:
        the preimage of atom k under H o Phi is (ppf(F_{k-1}), ppf(F_k)]."""
        upper = norm.cdf(norm.ppf(self.cdf))
        lower = np.concatenate(([0.0], upper[:-1]))
        return upper - lower


@dataclass
class CouplingReport:
    n: int
    seed: int
    budget: int
    alpha: float
    D_hat: float
    frac_event: float
    tail_slope: float
    tail_intercept: float

    CSV_COLUMNS = ("n", "seed", "D_hat", "tail_slope", "tail_intercept",
                   "frac_event", "budget")


def coupling_tail_report(n: int, budget: int, seed: int,
                         alpha: float = 0.125) -> CouplingReport:
    """Couple budget normal draws to the exact binomial lattice and summarize.

    Reports the smallest D with deviation <= 2 D (W^2 + 1) on the event
    |W| <= alpha sqrt(n), and a linear fit of ln P(deviation > x) against x
    (a strictly negative slope indicates an exponential tail).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (0.0 < alpha < math.inf):
        raise ValueError("alpha must be finite and > 0")
    if budget < 1000:
        raise ValueError("budget too small to resolve the deviation tail")
    qf = ExactBinomialQuantile(n)
    sqrt_n, log_n = math.sqrt(n), math.log(n)
    d_hat = 0.0
    on_event = 0
    devs = []
    for rng, size in seeded_chunks(seed, budget, COUPLE_CHUNK):
        z = rng.standard_normal(size)
        w = qf.evaluate_batch(norm.cdf(z))
        dev = sqrt_n * np.abs(w - z) / log_n
        devs.append(dev)
        mask = np.abs(w) <= alpha * sqrt_n
        on_event += int(mask.sum())
        if mask.any():
            d_hat = max(d_hat, float(np.max(dev[mask] / (2.0 * (w[mask] ** 2 + 1.0)))))
    dev = np.concatenate(devs)
    slope, intercept = _fit_exponential_tail(dev)
    return CouplingReport(n=n, seed=seed, budget=budget, alpha=alpha,
                          D_hat=d_hat, frac_event=on_event / budget,
                          tail_slope=slope, tail_intercept=intercept)


def _fit_exponential_tail(dev: np.ndarray, points: int = 12,
                          min_count: int = 50):
    """Least-squares fit of ln P(deviation > x) over an x grid spanning the
    bulk of the observed range; grid points with too few exceedances are
    dropped to keep the fit stable."""
    lo = float(np.quantile(dev, 0.5))
    hi = float(np.quantile(dev, 1.0 - min_count / dev.size))
    if hi <= lo:
        hi = lo + 1e-6
    xs = np.linspace(lo, hi, points)
    counts = np.array([(dev > x).sum() for x in xs], dtype=float)
    keep = counts >= min_count
    xs, counts = xs[keep], counts[keep]
    if xs.size < 2:
        return math.nan, math.nan
    logp = np.log(counts / dev.size)
    slope, intercept = np.polyfit(xs, logp, 1)
    return float(slope), float(intercept)
