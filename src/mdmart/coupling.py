"""Quantile coupling: realize W = H(Phi(Z)) on the same space as a standard
normal Z and measure how far the pair drifts apart, exactly.

The generalized inverse H(s) = inf{x : F(x) >= s} is left-continuous, so W
equals the k-th lattice value w_k exactly when Z lies in (z_{k-1}, z_k],
where z_k = Phi^{-1}(F_k) (Mason & Zhou 2012, Probability Surveys 9:439).
Every statistic of the pair is therefore a maximum or a finite sum of normal
interval measures over the atoms; nothing is sampled."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri, ndtri_exp
from scipy.stats import binom

# atoms whose mass below (or above) them is under TAIL_CUT / 2 are left out
# of the deviation tail sums, so every tail is low by at most TAIL_CUT
TAIL_CUT = 1e-15
# ln P(deviation > t) is fitted on FIT_POINTS values of t, from the t at
# tail level 1/2 to the t at tail level FIT_FLOOR
FIT_POINTS = 12
FIT_FLOOR = 2.5e-4


def _normal_mass(a, b):
    """P(a < Z <= b) for a <= b, elementwise.  An interval right of 0 is
    measured in the upper tail, where Phi rounds to 1 and 1 - Phi does not."""
    return np.where(a > 0.0, ndtr(-a) - ndtr(-b), ndtr(b) - ndtr(a))


class ExactBinomialQuantile:
    """X_n = (2 S - n)/sqrt(n), S ~ Bin(n, 1/2), coupled to Z as H(Phi(Z)):
    W = values[k] exactly when Z lies in (z_lower[k], z[k]]."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        k = np.arange(n + 1)
        self.n = n
        self.values = (2.0 * k - n) / math.sqrt(n)
        # F_k is below 1/2 only at k <= n/2 and 1 - F_k only at k >= (n-1)/2,
        # so each is evaluated on its half and left at 1 on the other, where
        # every test below reads it as large
        cdf, sf = np.ones(n + 1), np.ones(n + 1)
        cdf[:n // 2 + 1] = binom.cdf(k[:n // 2 + 1], n, 0.5)
        sf[(n - 1) // 2:] = binom.sf(k[(n - 1) // 2:], n, 0.5)
        # each z_k from the smaller of F_k and 1 - F_k: F_k rounds to 1 in
        # the upper tail, where 1 - F_k keeps its digits
        lower = cdf < 0.5
        tail = np.where(lower, cdf, sf)
        z = ndtri(tail)
        # a tail below the smallest normal float is summed in log space, from
        # its end of the lattice over the deep atoms only
        deep = tail < np.finfo(float).tiny
        if deep.any():
            log_tail = np.zeros(n + 1)
            below = np.flatnonzero(deep & lower)
            if below.size:
                top = below[-1] + 1
                log_tail[:top] = np.logaddexp.accumulate(binom.logpmf(k[:top], n, 0.5))
            above = np.flatnonzero(deep & ~lower)
            if above.size:
                bottom = above[0]
                log_sf = np.logaddexp.accumulate(binom.logpmf(k[:bottom:-1], n, 0.5))
                log_tail[bottom:] = np.append(log_sf[::-1], -math.inf)
            z[deep] = ndtri_exp(log_tail[deep])
        self.z = np.where(lower, z, -z)
        self.z[-1] = math.inf
        self.z_lower = np.concatenate(([-math.inf], self.z[:-1]))
        # the tail sums' atoms: all but those with less than TAIL_CUT / 2
        # of mass at or below them, or at or above them
        at_or_above = np.concatenate(([1.0], sf[:-1]))
        self._tail_atoms = np.flatnonzero((cdf >= TAIL_CUT / 2.0)
                                          & (at_or_above >= TAIL_CUT / 2.0))
        # Phi at -+ each end of every atom's z-interval: the ends are the
        # same for every t, so the tail sums evaluate only the moving ones
        self._ends_ndtr = (ndtr(-self.z_lower), ndtr(self.z_lower),
                           ndtr(-self.z), ndtr(self.z))

    def atom_probabilities(self) -> np.ndarray:
        """P(W = values[k]) for the coupled W: the normal measure of
        (z_lower[k], z[k]]."""
        return _normal_mass(self.z_lower, self.z)

    def deviation_tail(self, t) -> np.ndarray:
        """P(sqrt(n) |W - Z| / ln n > t) for each t in `t`, exact but for the
        atoms cut from the sum, which lowers it by at most TAIL_CUT.  On atom
        k the deviation exceeds t where Z < w_k - u or Z > w_k + u, with
        u = t ln n / sqrt(n)."""
        u = np.asarray(t, dtype=float)[:, None] * math.log(self.n) / math.sqrt(self.n)
        i = self._tail_atoms
        w, a, b = self.values[i], self.z_lower[i], self.z[i]
        sf_a, cdf_a, sf_b, cdf_b = (e[i] for e in self._ends_ndtr)
        # _normal_mass(a, c) and _normal_mass(d, b), with Phi taken once at
        # the moving end, on the side that _normal_mass measures
        c = np.clip(w - u, a, b)
        right = a > 0.0
        at_c = ndtr(np.where(right, -c, c))
        below = np.where(right, sf_a - at_c, at_c - cdf_a)
        d = np.clip(w + u, a, b)
        right = d > 0.0
        at_d = ndtr(np.where(right, -d, d))
        above = np.where(right, at_d - sf_b, cdf_b - at_d)
        return (below + above).sum(axis=1)


@dataclass
class CouplingReport:
    n: int
    alpha: float
    D: float
    frac_event: float
    tail_slope: float
    tail_intercept: float

    CSV_COLUMNS = ("n", "D", "tail_slope", "tail_intercept", "frac_event")


def exact_coupling_report(n: int, alpha: float = 0.125) -> CouplingReport:
    """The coupling of X_n to Z, summarized exactly.

    D is the smallest constant with deviation <= 2 D (W^2 + 1) on the event
    |W| <= alpha sqrt(n), deviation = sqrt(n) |W - Z| / ln n: on atom k the
    deviation is largest at an end of (z_{k-1}, z_k].  frac_event is the
    event's probability.  The tail is a least-squares line through
    ln P(deviation > t) at FIT_POINTS values of t from the median deviation
    to the t at tail level FIT_FLOOR (a strictly negative slope indicates an
    exponential tail).  alpha < 1 keeps the end atoms +-sqrt(n), whose
    z-intervals are unbounded, off the event.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    qf = ExactBinomialQuantile(n)
    sqrt_n, log_n = math.sqrt(n), math.log(n)
    w = qf.values
    event = np.abs(w) <= alpha * sqrt_n
    reach = np.maximum(np.abs(w - qf.z_lower), np.abs(w - qf.z))[event]
    d = sqrt_n * reach / log_n / (2.0 * (w[event] ** 2 + 1.0))
    frac_event = float(np.sum(qf.atom_probabilities()[event]))
    slope, intercept = _fit_exponential_tail(qf)
    return CouplingReport(n=n, alpha=alpha, D=float(np.max(d, initial=0.0)),
                          frac_event=frac_event, tail_slope=slope,
                          tail_intercept=intercept)


def _tail_level(qf: ExactBinomialQuantile, level: float) -> float:
    """The t with P(deviation > t) = level; the tail falls continuously and
    strictly from 1 at t = 0."""
    def gap(t):
        return float(qf.deviation_tail([t])[0]) - level

    hi = 1.0
    while gap(hi) > 0.0:
        hi *= 2.0
    return brentq(gap, 0.0, hi)


def _fit_exponential_tail(qf: ExactBinomialQuantile):
    """Least-squares fit of ln P(deviation > t) against t over the grid of
    `exact_coupling_report`."""
    ts = np.linspace(_tail_level(qf, 0.5), _tail_level(qf, FIT_FLOOR), FIT_POINTS)
    slope, intercept = np.polyfit(ts, np.log(qf.deviation_tail(ts)), 1)
    return float(slope), float(intercept)
