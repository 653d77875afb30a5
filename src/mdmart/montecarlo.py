"""Deterministic chunked Monte Carlo engine for tail estimation.

Sampling is chunked: chunk j draws from a counter-based Philox stream keyed
(master_seed, j), or (master_seed, (row << 32) | j) for row `row` of a
report, and per-chunk statistics are merged in index order with
compensated summation.  A model with an exact finite terminal law has its
paths' histogram drawn at once instead, from the stream of chunk 0.
Results are therefore a pure function of (model, parameters, seed); the
mixing simulators draw the same way.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import betaincinv, logsumexp, ndtri
from scipy.stats import binom

from .bounds import BoundParams, gaussian_tail, ratio_envelope
from .models import MartingaleModel
from .tilt import choose_tilt

CHUNK = 8192

MIN_ESS = 10.0

# most paths `enumerate_terminal` builds: it holds all of them at once, and
# a 9-atom law reaches 9^14 at n = 14
MAX_PATHS = 1 << 20


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


def positioned_stream(seed: int, skip: int) -> np.random.Generator:
    """`seeded_stream(seed)` as it stands after `skip` doubles were drawn
    from it, reached without drawing them: Philox makes four 64-bit words
    per counter step and a double takes one word, so the counter is advanced
    skip // 4 steps and the skip % 4 doubles left are drawn and dropped."""
    rng = seeded_stream(seed)
    rng.bit_generator.advance(skip // 4)
    rng.random(skip % 4)
    return rng


def seeded_chunks(seed: int, total: int, size: int, row: int = 0):
    """Yield (rng, count) for `total` draws split into chunks of `size`; the
    last chunk holds the remainder.  Chunk j draws from the stream keyed
    [seed, (row << 32) | j], so each chunk is a pure function of (seed, row,
    j) and no two (seed, row) pairs share a stream; row 0 is keyed [seed, j]."""
    for j, start in enumerate(range(0, total, size)):
        yield seeded_stream(seed, (row << 32) | j), min(size, total - start)


def clopper_pearson(successes: int, trials: int):
    """The 95% Clopper-Pearson interval.  Its tail level (1 - 0.95) / 2 is
    one ulp above 0.025, and the literal would move some interval ends.

    Each end is a beta quantile from `betaincinv`, except that past about
    10^16 trials `betaincinv` can return nan, or an end on the wrong side of
    p_hat = successes / trials.  Such an end is taken from the Cornish-Fisher
    expansion of the beta quantile instead, held between p_hat and the
    interval's bound (0 or 1), so every end is finite and
    lo <= p_hat <= hi."""
    a = (1.0 - 0.95) / 2.0
    k, n = successes, trials
    p = k / n
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, a))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1.0 - a))
    if not 0.0 <= lo <= p:
        lo = min(max(_beta_quantile_cf(k, n - k + 1, a), 0.0), p)
    if not p <= hi <= 1.0:
        hi = min(max(_beta_quantile_cf(k + 1, n - k, 1.0 - a), p), 1.0)
    return lo, hi


def _beta_quantile_cf(a: int, b: int, level: float) -> float:
    """The `level` quantile of Beta(a, b) by the Cornish-Fisher expansion
    (Cornish & Fisher 1937) to the terms in its skewness g1 and excess
    kurtosis g2, whose closed forms for the beta law are in Johnson, Kotz &
    Balakrishnan, *Continuous Univariate Distributions* 2 (1995), ch. 25.
    Its error, in standard deviations, falls like min(a, b)^{-3/2}: under
    3e-3 at min(a, b) = 10 and under 1e-10 at 10^6."""
    a, b = float(a), float(b)
    s = a + b
    mean, sd = a / s, math.sqrt(a * b / (s * s * (s + 1.0)))
    g1 = 2.0 * (b - a) * math.sqrt(s + 1.0) / ((s + 2.0) * math.sqrt(a * b))
    g2 = 6.0 * ((a - b) ** 2 * (s + 1.0) - a * b * (s + 2.0)) / (a * b * (s + 2.0) * (s + 3.0))
    z = float(ndtri(level))
    w = (z + (z * z - 1.0) * g1 / 6.0 + (z ** 3 - 3.0 * z) * g2 / 24.0
         - (2.0 * z ** 3 - 5.0 * z) * g1 * g1 / 36.0)
    return mean + sd * w


def lattice_histogram(prob: np.ndarray, total: int,
                      rng: np.random.Generator) -> np.ndarray:
    """How many of `total` independent draws land in each cell, the cells
    weighted by `prob` (masses, normalised by their sum): one
    Multinomial(total; prob / sum(prob)) vector.

    The draw runs down a pairwise-sum tree (Devroye 1986, ch. XI): every
    node's mass is the plain sum of its two children's, and a node's count
    is split between its children by one binomial draw for the lighter
    child, at share = lighter / node <= 1/2.  That share is relatively
    accurate however deep in a tail the child lies, where 1 - (running sum)
    is not.  One vectorized binomial call per tree level, about
    log2(len(prob)) in all."""
    size = 1 << (len(prob) - 1).bit_length()
    masses = [np.zeros(size)]
    masses[0][:len(prob)] = prob
    while masses[-1].size > 1:
        below = masses[-1]
        masses.append(below[0::2] + below[1::2])
    count = np.array([total], dtype=np.int64)
    for below, node in zip(masses[-2::-1], masses[::-1]):
        left, right = below[0::2], below[1::2]
        share = np.divide(np.minimum(left, right), node,
                          out=np.zeros_like(node), where=node > 0.0)
        drawn = rng.binomial(count, share)
        first = np.where(left <= right, drawn, count - drawn)
        count = np.column_stack((first, count - first)).ravel()
    return count[:len(prob)]


def _weighted_sums(count, w):
    """(sum count * w, sum count * w^2), each fsum'd over a list of floats,
    not walked over numpy scalars.  count = 1 gives w and w * w bit for bit."""
    cw = count * w
    return math.fsum(cw.tolist()), math.fsum((cw * w).tolist())


def _law_ess(law, x: float, n_samples: int) -> float:
    """The ESS of n_samples paths by the exact law, n (E_lam[w 1{X_n > x}])^2
    / E_lam[w^2 1{X_n > x}], taken in log space: 0 when no cell past x has
    mass under P_lam."""
    past = (law.x > x) & (law.log_prob > -math.inf)
    if not past.any():
        return 0.0
    lp, lw = law.log_prob[past], law.log_weight[past]
    return math.exp(math.log(n_samples) + 2.0 * logsumexp(lp + lw)
                    - logsumexp(lp + 2.0 * lw))


def _tail_sums(model: MartingaleModel, x: float, lam: float, n_samples: int,
               seed: int, row: int):
    """(paths past x, sum of their weights w, sum of w^2) over n_samples
    paths under P_lam, w = e^{-lam X_n + Psi_n}, and the terminal law the
    paths were drawn from, or None.

    When the model has an exact finite terminal law (`terminal_law`), the
    paths' histogram over its cells is drawn at once from the stream keyed
    [seed, row << 32], and each cell counts its paths (`lattice_histogram`);
    the time this takes does not grow with n_samples.  Otherwise the paths
    are drawn in chunks of CHUNK from the streams of `seeded_chunks`, each
    path counting once, and the chunks' sums are fsum'd in order."""
    if not 1 <= n_samples < 2 ** 63:
        raise ValueError("n_samples must lie in [1, 2^63)")
    law = model.terminal_law(lam)
    if law is not None:
        count = lattice_histogram(np.exp(law.log_prob), n_samples,
                                  seeded_stream(seed, row << 32))
        # a cell that no path reached may weigh inf, and 0 * inf is nan
        past = (law.x > x) & (count > 0)
        parts = [(int(count[past].sum()),
                  *_weighted_sums(count[past], np.exp(law.log_weight[past])))]
    else:
        parts = []
        for rng, size in seeded_chunks(seed, n_samples, CHUNK, row):
            batch = model.simulate_terminal(size, rng, lam=lam)
            past = batch.x > x
            parts.append((int(np.count_nonzero(past)),
                          *_weighted_sums(1, np.exp(batch.log_weight[past]))))
    hits, s1, s2 = zip(*parts)
    return sum(hits), math.fsum(s1), math.fsum(s2), law


def estimate_tail_plain(model: MartingaleModel, x: float, n_samples: int,
                        seed: int) -> TailEstimate:
    """Plain-MC P(X_n > x) with a Clopper-Pearson 95% interval; the paths
    are those of `estimate_tail_tilted` at lam = 0 and row 0."""
    k = _tail_sums(model, x, 0.0, n_samples, seed, 0)[0]
    p = k / n_samples
    se = math.sqrt(p * (1.0 - p) / n_samples)
    return TailEstimate(p_hat=p, std_err=se, ci95=clopper_pearson(k, n_samples),
                        ess=float(n_samples), n_samples=n_samples,
                        estimator="plain")


def estimate_tail_tilted(model: MartingaleModel, x: float, lam: float,
                         n_samples: int, seed: int, row: int = 0) -> TailEstimate:
    """Importance-sampled P(X_n > x) under the conjugate measure P_lam,
    drawn from the streams of report row `row` (see `_tail_sums`).

    Each sample contributes w = e^{-lam X_n + Psi_n} 1{X_n > x}; the identity
    E_lam[w] = P(X_n > x) holds exactly, so the estimator is unbiased.

    The ESS is the sample's (sum w)^2 / sum w^2, or the exact law's where
    the model has one (`_law_ess`), whichever is smaller.  The sample's
    cannot see the cells no path reached: a tilt that puts every path in
    one far cell gives equal weights and a full ESS, and only the law's
    reads it as the handful of paths it is worth.
    """
    if lam < 0.0:
        raise ValueError("lambda must be >= 0")
    _, sw, sw2, law = _tail_sums(model, x, lam, n_samples, seed, row)
    p = sw / n_samples
    var = max(sw2 / n_samples - p * p, 0.0)
    se = math.sqrt(var / n_samples)
    ess = sw * sw / sw2 if sw2 > 0.0 else 0.0
    if law is not None:
        ess = min(ess, _law_ess(law, x, n_samples))
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

    def write_csv(self, path, header_comment: str):
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


def write_csv(path, columns, rows, header_comment: str):
    """The one artifact format: '# ' + header_comment, the column names,
    then one '\n'-terminated line per mapping in `rows`.  Integers are
    written as themselves and all else as repr(float(v)), so fields parse."""
    with open(path, "w", newline="") as fh:
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
    """Exhaustive path enumeration, walking the model's state table one step
    at a time: each step extends every path by every atom of its state's law.

    Returns arrays (prob under P_lam, X_n, log_weight), one entry per path.
    Each path's products and sums are taken in step order, as a walk down
    that path takes them.  Exponential in n; guarded to n <= 14 and to
    MAX_PATHS paths.
    """
    if model.n > 14:
        raise ValueError("enumeration limited to n <= 14")
    table = model.table
    tilted = model.tilted_laws(lam)
    width = table.T.shape[1]
    # per law, its atoms padded to the table's width; `real` marks the atoms
    real = np.zeros((len(tilted), width), dtype=bool)
    value = np.zeros((len(tilted), width))
    prob_of = np.zeros((len(tilted), width))
    for i, tl in enumerate(tilted):
        real[i, :len(tl.atoms)] = True
        value[i, :len(tl.atoms)] = tl.values
        prob_of[i, :len(tl.atoms)] = tl.probs
    log_mgf = np.array([tl.step_log_mgf for tl in tilted])

    state = np.zeros(1, dtype=np.intp)
    prob, x, psi = np.ones(1), np.zeros(1), np.zeros(1)
    for _ in range(model.n):
        law = table.law_of[state]
        keep = real[law].ravel()
        if np.count_nonzero(keep) > MAX_PATHS:
            raise ValueError(f"enumeration limited to {MAX_PATHS} paths")
        prob = (prob[:, None] * prob_of[law]).ravel()[keep]
        x = (x[:, None] + value[law]).ravel()[keep]
        psi = np.repeat(psi + log_mgf[law], width)[keep]
        state = table.T[state].ravel()[keep]
    return prob, x, -lam * x + psi


def exact_tail_by_enumeration(model: MartingaleModel, x: float) -> float:
    prob, xn, _ = enumerate_terminal(model, 0.0)
    return math.fsum(prob[xn > x].tolist())


def is_expectation_by_enumeration(model: MartingaleModel, x: float,
                                  lam: float) -> float:
    """Sum over all tilted paths of P_lam(path) e^{log_weight} 1{X_n > x};
    equals the exact tail when the importance identity holds."""
    prob, xn, lw = enumerate_terminal(model, lam)
    past = xn > x
    # math.exp, not np.exp: the sum is then bit for bit the walk's
    return math.fsum(p * math.exp(w) for p, w in
                     zip(prob[past].tolist(), lw[past].tolist()))
