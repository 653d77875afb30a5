"""Deterministic chunked Monte Carlo engine for tail estimation.

Sampling is chunked: chunk j draws from a counter-based Philox stream keyed
(master_seed, j), or (master_seed, (row << 32) | j) for row `row` of a
report, and per-chunk statistics are merged in index order with
compensated summation.  Results are therefore a pure function of
(model, parameters, seed); the coupling and mixing simulators draw the same way.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.stats import beta as beta_dist
from scipy.stats import binom

from .bounds import BoundParams, gaussian_tail, ratio_envelope
from .models import MartingaleModel
from .tilt import choose_tilt

CHUNK = 8192

MIN_ESS = 10.0


@dataclass
class TailEstimate:
    p_hat: float
    std_err: float
    ci95: tuple[float, float]
    ess: float
    n_samples: int
    estimator: str           # "plain" or "tilted(lam)"
    flags: list = field(default_factory=list)


def seeded_stream(seed: int, j: int = 0) -> np.random.Generator:
    """The counter-based Philox stream keyed [seed, j].  Seeds outside
    [0, 2^63) are refused: numpy wraps a negative key word and rounds a
    larger one through a float, so neighbouring seeds would share a stream."""
    if not 0 <= seed < 2 ** 63:
        raise ValueError(f"seed {seed} outside [0, 2^63)")
    return np.random.Generator(np.random.Philox(key=[seed, j]))


def seeded_chunks(seed: int, total: int, size: int, row: int = 0):
    """Yield (rng, count) for `total` draws split into chunks of `size`; the
    last chunk holds the remainder.  Chunk j draws from the stream keyed
    [seed, (row << 32) | j], so each chunk is a pure function of (seed, row,
    j) and no two (seed, row) pairs share a stream; row 0 is keyed [seed, j]."""
    for j, start in enumerate(range(0, total, size)):
        yield seeded_stream(seed, (row << 32) | j), min(size, total - start)


def clopper_pearson(successes: int, trials: int, level: float = 0.95):
    a = (1.0 - level) / 2.0
    lo = 0.0 if successes == 0 else beta_dist.ppf(a, successes, trials - successes + 1)
    hi = 1.0 if successes == trials else beta_dist.ppf(1.0 - a, successes + 1, trials - successes)
    return float(lo), float(hi)


def estimate_tail_plain(model: MartingaleModel, x: float, n_samples: int,
                        seed: int) -> TailEstimate:
    """Plain-MC P(X_n > x) with a Clopper-Pearson 95% interval."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    counts = []
    for rng, size in seeded_chunks(seed, n_samples, CHUNK):
        batch = model.simulate_terminal(size, rng)
        counts.append(float(np.count_nonzero(batch.x > x)))
    k = int(math.fsum(counts))
    p = k / n_samples
    se = math.sqrt(p * (1.0 - p) / n_samples)
    return TailEstimate(p_hat=p, std_err=se, ci95=clopper_pearson(k, n_samples),
                        ess=float(n_samples), n_samples=n_samples,
                        estimator="plain")


def estimate_tail_tilted(model: MartingaleModel, x: float, lam: float,
                         n_samples: int, seed: int, row: int = 0) -> TailEstimate:
    """Importance-sampled P(X_n > x) under the conjugate measure P_lam,
    drawn from the streams of report row `row` (see `seeded_chunks`).

    Each sample contributes w = e^{-lam X_n + Psi_n} 1{X_n > x}; the identity
    E_lam[w] = P(X_n > x) holds exactly, so the estimator is unbiased.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if lam < 0.0:
        raise ValueError("lambda must be >= 0")
    s1, s2 = [], []
    for rng, size in seeded_chunks(seed, n_samples, CHUNK, row):
        batch = model.simulate_terminal(size, rng, lam=lam)
        # only paths past x carry weight; fsum of a list of floats, not a
        # walk over numpy scalars
        w = np.exp(batch.log_weight[batch.x > x])
        s1.append(math.fsum(w.tolist()))
        s2.append(math.fsum((w * w).tolist()))
    sw = math.fsum(s1)
    sw2 = math.fsum(s2)
    p = sw / n_samples
    var = max(sw2 / n_samples - p * p, 0.0)
    se = math.sqrt(var / n_samples)
    ess = sw * sw / sw2 if sw2 > 0.0 else 0.0
    flags = [] if ess >= MIN_ESS else ["low_ess"]
    ci = (max(p - 1.96 * se, 0.0), min(p + 1.96 * se, 1.0))
    return TailEstimate(p_hat=p, std_err=se, ci95=ci, ess=ess,
                        n_samples=n_samples, estimator=f"tilted({lam:.6g})",
                        flags=flags)


# ---------------------------------------------------------------------------
# ratio reports


@dataclass
class RatioRow:
    x: float
    p_hat: float
    se: float
    ci_lo: float
    ci_hi: float
    gauss_tail: float
    ratio: float
    log_ratio: float
    bound_lo: float
    bound_hi: float
    ess: float
    n_samples: int
    seed: int
    lam: float
    flags: list


@dataclass
class RatioReport:
    rows: list

    CSV_COLUMNS = ("x", "p_hat", "se", "ci_lo", "ci_hi", "gauss_tail",
                   "ratio", "log_ratio", "bound_lo", "bound_hi", "ess",
                   "n_samples", "seed")

    def write_csv(self, path, header_comment: str = ""):
        write_csv(path, self.CSV_COLUMNS, [vars(r) for r in self.rows],
                  header_comment)


def check_x_grid(x_grid: Sequence[float]):
    """Refuse the first x whose 1 - Phi(x) underflows to 0: it has no ratio.
    Reports call this before they estimate anything."""
    for x in x_grid:
        if gaussian_tail(x) == 0.0:
            raise ValueError(f"x = {float(x)!r} is too large: 1 - Phi(x) underflows to 0")


def ratio_row(x: float, p_hat: float, params: BoundParams, **fields) -> RatioRow:
    """The report row of an estimate p_hat of P(X > x): its ratio to
    1 - Phi(x) and the theorem envelope at x; `fields` holds the estimate's
    other columns.  An x whose 1 - Phi(x) underflows to 0 is refused."""
    check_x_grid((x,))
    gt = gaussian_tail(x)
    ratio = p_hat / gt
    lo, hi = ratio_envelope(x, params)
    return RatioRow(x=float(x), p_hat=p_hat, gauss_tail=gt, ratio=ratio,
                    log_ratio=math.log(ratio) if ratio > 0 else -math.inf,
                    bound_lo=lo, bound_hi=hi, **fields)


def write_csv(path, columns, rows, header_comment: str = ""):
    """The one artifact format: an optional '# ' comment line, the column
    names, then one '\n'-terminated line per mapping in `rows`.  Integers are
    written as themselves and all else as repr(float(v)), so fields parse."""
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            values = [row[c] for c in columns]
            writer.writerow([v if isinstance(v, int) else repr(float(v))
                             for v in values])


def ratio_report(model: MartingaleModel, x_grid: Sequence[float], budget: int,
                 seed: int, params: BoundParams) -> RatioReport:
    """Tilted estimates of P(X_n > x) against 1 - Phi(x) with the theorem
    envelope attached per x; row i draws from the streams of (seed, i).  A
    grid holding an x with no ratio is refused before any row is estimated."""
    check_x_grid(x_grid)
    rows = []
    for i, x in enumerate(x_grid):
        sel = choose_tilt(model, x)
        est = estimate_tail_tilted(model, x, sel.lam, budget, seed, row=i)
        flags = list(est.flags)
        if not sel.converged:
            flags.append("tilt_fallback")
        rows.append(ratio_row(x, est.p_hat, params, se=est.std_err,
                              ci_lo=est.ci95[0], ci_hi=est.ci95[1], ess=est.ess,
                              n_samples=budget, seed=seed, lam=sel.lam,
                              flags=flags))
    return RatioReport(rows=rows)


# ---------------------------------------------------------------------------
# moderate-deviation scan


def parse_an_rule(rule: str) -> float:
    """Rules of the form 'n^gamma'; returns gamma."""
    if not rule.startswith("n^"):
        raise ValueError(f"unsupported a_n rule {rule!r}; use 'n^gamma'")
    return float(rule[2:])


def mdp_scan(model_family: Callable[[int], MartingaleModel], ns: Sequence[int],
             a_n_rule: str, b: float, budget: int, seed: int):
    """Table of (n, a_n, p_hat, (1/a_n^2) ln p_hat) for P(X_n > a_n b).

    The rate should drift toward -b^2/2.  The rule must send a_n to infinity
    while a_n * eps_n -> 0; for power rules and eps_n ~ n^{-1/2} that means
    gamma in (0, 1/2).  Row i draws from the streams of (seed, i).
    """
    gamma = parse_an_rule(a_n_rule)
    if not (0.0 < gamma < 0.5):
        raise ValueError("a_n rule must have exponent in (0, 1/2) so that "
                         "a_n -> inf and a_n * eps_n -> 0")
    if not math.isfinite(b):
        raise ValueError("b must be finite")
    out = []
    for i, n in enumerate(ns):
        model = model_family(n)
        a_n = float(n) ** gamma
        x = a_n * b
        sel = choose_tilt(model, x)
        est = estimate_tail_tilted(model, x, sel.lam, budget, seed, row=i)
        rate = math.log(est.p_hat) / (a_n * a_n) if est.p_hat > 0 else -math.inf
        out.append({"n": n, "a_n": a_n, "x": x, "p_hat": est.p_hat,
                    "se": est.std_err, "rate": rate, "ess": est.ess})
    return out


# ---------------------------------------------------------------------------
# exact oracles


def rademacher_exact_tail(n: int, x: float) -> float:
    """P((2 S - n)/sqrt(n) > x) for S ~ Bin(n, 1/2), exact."""
    s_min = math.floor((n + x * math.sqrt(n)) / 2.0) + 1
    if s_min > n:
        return 0.0
    return float(binom.sf(s_min - 1, n, 0.5))


def enumerate_terminal(model: MartingaleModel, lam: float = 0.0):
    """Exhaustive path enumeration, walking the model's state table.

    Yields (prob under P_lam, X_n, log_weight) per path.  Exponential in n;
    guarded to n <= 14.
    """
    if model.n > 14:
        raise ValueError("enumeration limited to n <= 14")
    table = model.table
    tilted = model.tilted_laws(lam)
    results = []

    def rec(step, s, prob, x, psi):
        if step == model.n:
            results.append((prob, x, -lam * x + psi))
            return
        tl = tilted[table.law_of[s]]
        for a, (v, p) in enumerate(tl.atoms):
            rec(step + 1, table.T[s, a], prob * p, x + v,
                psi + tl.step_log_mgf)

    rec(0, 0, 1.0, 0.0, 0.0)
    return results


def exact_tail_by_enumeration(model: MartingaleModel, x: float) -> float:
    return math.fsum(p for p, xn, _ in enumerate_terminal(model, 0.0)
                     if xn > x)


def is_expectation_by_enumeration(model: MartingaleModel, x: float,
                                  lam: float) -> float:
    """Sum over all tilted paths of P_lam(path) e^{log_weight} 1{X_n > x};
    equals the exact tail when the importance identity holds."""
    return math.fsum(p * math.exp(lw) for p, xn, lw in
                     enumerate_terminal(model, lam) if xn > x)
