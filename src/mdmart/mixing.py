"""Finite-state Markov chains with exactly computable mixing coefficients,
interlaced block sums, Berbee-style coupling and the associated tail-ratio
experiment.

beta(n) and the dominating psi coefficient come from matrix powers, so every
mixing bound used downstream is exact rather than estimated.  The true
psi-mixing coefficient involves a sup over infinite-future events; for a
finite chain the ratio coefficient psi_bar(n) = max_ij |P^n(i,j)/pi(j) - 1|
dominates it, and all bounds are upper bounds, so substituting psi_bar keeps
every check conservative.

Everything about one block of m steps derives from one exact table, the
joint law of its sum and end state given its start (`_block_law`).  The
block-sum sampler draws 2^b blocks with one uniform, from that table
bridged over the gap and doubled b times (`_block_tables`)."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alias import (BLOCK_TABLE_CELLS, alias_draw, alias_tables,
                    double_block_law, draw_plan)
from .bounds import BoundParams
from .montecarlo import (RatioReport, check_x_grid, clopper_pearson, ratio_row,
                         seeded_chunks)

# block-sum paths are long, so chunks are larger here than in the tail
# estimators; the chunk size is a fixed constant, so determinism is unaffected.
# The Berbee coupling draws its reps in chunks of the same size.
MIX_CHUNK = 65536


class ChainError(ValueError):
    pass


def stationary_dist(P: np.ndarray) -> np.ndarray:
    """Solve pi P = pi, sum pi = 1 by least squares; rejects reducible or
    periodic chains (the experiments all need a primitive matrix)."""
    P = np.asarray(P, dtype=float)
    S = P.shape[0]
    if P.shape != (S, S):
        raise ChainError("P must be square")
    if np.any(P < -1e-15) or np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-12):
        raise ChainError("P must be row-stochastic")
    if not _is_primitive(P):
        raise ChainError("chain must be irreducible and aperiodic")
    A = np.vstack((P.T - np.eye(S), np.ones((1, S))))
    b = np.zeros(S + 1)
    b[-1] = 1.0
    pi = np.linalg.lstsq(A, b, rcond=None)[0]
    if np.max(np.abs(pi @ P - pi)) > 1e-12:
        raise ChainError("stationary solve residual too large")
    return pi


def _is_primitive(P: np.ndarray) -> bool:
    # Wielandt: a primitive S-state matrix has a strictly positive power by
    # exponent S^2 - 2S + 2
    S = P.shape[0]
    M = (P > 0.0).astype(float)
    power = np.eye(S)
    for _ in range(S * S - 2 * S + 2):
        power = np.minimum(power @ M, 1.0)
    return bool(np.all(power > 0.0))


@dataclass
class MarkovChainSpec:
    states: list
    P: np.ndarray
    f: np.ndarray       # observable per state, centered under pi
    name: str = "chain"

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        self.pi = stationary_dist(self.P)
        self._block_laws = {}   # m -> _block_law(self, m), derived like pi
        self._block_tables = {}  # m -> the doubling ladder of _block_tables
        if len(self.states) != self.P.shape[0] or self.f.size != self.P.shape[0]:
            raise ChainError("states, P and f sizes disagree")
        if abs(float(self.pi @ self.f)) > 1e-12:
            raise ChainError("observable must be centered under pi")


def two_state_chain(a: float, b: float) -> MarkovChainSpec:
    """Two-state chain [[1-a, a], [b, 1-b]] with a centered unit-variance
    observable."""
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise ChainError("need a, b in (0, 1)")
    P = np.array([[1.0 - a, a], [b, 1.0 - b]])
    pi0, pi1 = b / (a + b), a / (a + b)
    t = 1.0 / math.sqrt(pi0 * pi1)
    return MarkovChainSpec(states=[0, 1], P=P,
                           f=np.array([pi1 * t, -pi0 * t]), name="two_state")


# ---------------------------------------------------------------------------
# mixing coefficients


def beta_coefficient(P: np.ndarray, n: int, pi: np.ndarray | None = None) -> float:
    """beta(n) = sum_i pi(i) * TV(P^n(i, .), pi), exact via matrix powers;
    pi, P's stationary law, is solved for when not given."""
    P = np.asarray(P, dtype=float)
    pi = stationary_dist(P) if pi is None else pi
    Pn = np.linalg.matrix_power(P, n)
    tv = 0.5 * np.abs(Pn - pi[None, :]).sum(axis=1)
    return float(pi @ tv)


def beta_two_state_closed_form(a: float, b: float, n: int) -> float:
    return 2.0 * a * b * abs(1.0 - a - b) ** n / (a + b) ** 2


def psi_bar_coefficient(P: np.ndarray, n: int, pi: np.ndarray | None = None) -> float:
    """Ratio-mixing dominator: max_ij |P^n(i,j)/pi(j) - 1|; pi, P's
    stationary law, is solved for when not given."""
    P = np.asarray(P, dtype=float)
    pi = stationary_dist(P) if pi is None else pi
    Pn = np.linalg.matrix_power(P, n)
    return float(np.max(np.abs(Pn / pi[None, :] - 1.0)))


def beta_by_enumeration(P: np.ndarray, n: int) -> float:
    """Brute-force beta(n): TV between the joint law of a past window and a
    future window of two states each, separated by n steps, and the product
    of their marginals, enumerating every path segment.  Oracle for small
    chains only."""
    P = np.asarray(P, dtype=float)
    S = P.shape[0]
    pi = stationary_dist(P)
    Pn = np.linalg.matrix_power(P, n)
    # every state path of length 2, with its transition weight
    segs = [((s, t), P[s, t]) for s in range(S) for t in range(S) if P[s, t] > 0]
    total = 0.0
    for past, w_past in segs:
        p_past = pi[past[0]] * w_past
        for fut, w_fut in segs:
            joint = p_past * Pn[past[-1], fut[0]] * w_fut
            prod = p_past * pi[fut[0]] * w_fut
            total += abs(joint - prod)
    return 0.5 * total


def fit_beta_decay(beta: np.ndarray):
    """Fit beta(n) ~ a1 exp(-a2 n^tau) by linear regression of ln beta on
    n^tau, picking the tau in {1/2, 3/4, 1} with the smallest residual."""
    ns = np.arange(1, beta.size + 1, dtype=float)
    mask = beta > 0.0
    if mask.sum() < 2:
        return math.inf, 0.0, 1.0
    best = None
    for tau in (0.5, 0.75, 1.0):
        xs = ns[mask] ** tau
        ys = np.log(beta[mask])
        slope, intercept = np.polyfit(xs, ys, 1)
        resid = float(np.max(np.abs(slope * xs + intercept - ys)))
        if best is None or resid < best[0]:
            best = (resid, math.exp(intercept), -slope, tau)
    _, a1, a2, tau = best
    return a1, a2, tau


@dataclass
class MixingCertificate:
    a1: float
    a2: float
    tau: float
    c1: float
    c2: float


def certify_chain(chain: MarkovChainSpec, n_max: int, m: int) -> MixingCertificate:
    """The decay fitted to the exact beta(1..n_max), and the exact
    block-moment constants c1, c2 from the stationary law of a length-m
    block sum."""
    beta = np.array([beta_coefficient(chain.P, n, chain.pi)
                     for n in range(1, n_max + 1)])
    a1, a2, tau = fit_beta_decay(beta)
    ys, law, _ = _block_law(chain, m)
    marg = list(zip(ys.tolist(), (chain.pi @ law.sum(axis=2)).tolist()))
    rho = 1.0
    m_abs = math.fsum(p * abs(y) ** (2.0 + rho) for y, p in marg)
    m_sq = math.fsum(p * abs(y) ** 2.0 for y, p in marg)
    c1 = (m_abs / m ** (1.0 + rho / 2.0)) ** (1.0 / (2.0 + rho))
    c2 = math.sqrt(m_sq / m)
    return MixingCertificate(a1=a1, a2=a2, tau=tau, c1=c1, c2=c2)


# ---------------------------------------------------------------------------
# block construction


def block_indices(n: int, alpha: float):
    """(m, k, list of index ranges), indices 0-based [start, start+m)."""
    if n < 1:
        raise ChainError("horizon n must be >= 1")
    if not (0.0 < alpha <= 0.5):
        # the theorems want alpha < 1/2; the boundary value is still a valid
        # decomposition and handy for round-number examples
        raise ChainError("alpha must lie in (0, 1/2]")
    m = int(math.floor(n ** alpha))
    k = int(math.floor(n / (2 * m)))
    if k < 1:
        raise ChainError("n too small: no complete block fits")
    return m, k, [(2 * m * j, 2 * m * j + m) for j in range(k)]


# exact distribution of one block sum: DP over (sum, end state)

def block_sum_distribution(chain: MarkovChainSpec, m: int):
    """Per start state: dict (y, end_state) -> prob of the length-m block sum
    Y = f(X_1) + ... + f(X_m) started at X_1 = start."""
    S = chain.P.shape[0]
    out = []
    for start in range(S):
        dist = {(round(float(chain.f[start]), 12), start): 1.0}
        for _ in range(m - 1):
            nxt = {}
            for (y, s), p in dist.items():
                for t in range(S):
                    pt = chain.P[s, t]
                    if pt > 0.0:
                        key = (round(y + float(chain.f[t]), 12), t)
                        nxt[key] = nxt.get(key, 0.0) + p * pt
            dist = nxt
        out.append(dist)
    return out


def _block_law(chain: MarkovChainSpec, m: int):
    """The law of one block as read-only arrays: (ys, law, hop), where ys
    holds the sorted block-sum values, law[s, i, e] = P(block sum ys[i], end
    state e | start s) and hop = P^{m+1} carries an end state to the next
    block's start.  Every block-sum computation derives from this one table;
    like pi it is derived data, so it is built once per (chain, m) and kept
    on the chain."""
    if m not in chain._block_laws:
        per_start = block_sum_distribution(chain, m)
        S = chain.P.shape[0]
        ys = np.array(sorted({y for dist in per_start for y, _ in dist}))
        index = {y: i for i, y in enumerate(ys)}
        law = np.zeros((S, ys.size, S))
        for s, dist in enumerate(per_start):
            for (y, e), p in dist.items():
                law[s, index[y], e] = p
        hop = np.linalg.matrix_power(chain.P, m + 1)
        for a in (ys, law, hop):
            a.flags.writeable = False
        chain._block_laws[m] = (ys, law, hop)
    return chain._block_laws[m]


# ---------------------------------------------------------------------------
# Berbee-style coupling


@dataclass
class BerbeeResult:
    blocks: np.ndarray
    independent: np.ndarray
    mismatch: np.ndarray  # bool per block


def berbee_couple(chain: MarkovChainSpec, m: int, k: int, reps: int,
                  rng: np.random.Generator) -> BerbeeResult:
    """`reps` independent sequential maximal couplings of interlaced block
    sums against i.i.d. copies from the stationary block marginal; every
    array in the result has shape (reps, k).

    The conditional block law depends on the history only through the
    previous block's end state, so there are S+1 cases: case 0 is the
    stationary start and case 1 + e follows end state e.  Per block, one
    alias draw gives the block's sum y and end state from its case's law
    cond; the copy keeps y with probability min(cond_y, marg) / cond_y at y,
    and is otherwise drawn from the marginal's residual (marg - cond_y)+,
    so it follows the marginal whatever the past.  Block 1 starts
    stationary, so it never mismatches; a later block mismatches with
    probability TV(conditional law, marginal), which averages over the
    previous end state to at most beta(m + 1).  All reps step together,
    three uniforms per rep and block."""
    ys, law, hop = _block_law(chain, m)
    S, Y = hop.shape[0], ys.size
    W = Y * S
    cond = np.einsum("cs,sie->cie", np.vstack((chain.pi, hop)), law)
    cond_y = cond.sum(axis=2)
    marg = cond_y[0]
    # case 0's law is the marginal itself, so it keeps with probability
    # exactly 1 and its all-zero residual row is never drawn from
    keep = np.divide(np.minimum(cond_y, marg), cond_y,
                     out=np.ones_like(cond_y), where=cond_y > 0.0)
    joint = alias_tables(cond.reshape(S + 1, W))
    resid = alias_tables(np.maximum(marg - cond_y, 0.0))
    blocks = np.empty((reps, k))
    indep = np.empty((reps, k))
    mismatch = np.empty((reps, k), dtype=bool)
    case = np.zeros(reps, dtype=np.intp)
    for j in range(k):
        u = rng.random((3, reps))
        y, end = np.divmod(alias_draw(joint, case * W, W, u[0]), S)
        kept = u[1] < keep[case, y]
        blocks[:, j] = ys[y]
        indep[:, j] = ys[np.where(kept, y, alias_draw(resid, case * Y, Y, u[2]))]
        mismatch[:, j] = ~kept
        case = 1 + end
    return BerbeeResult(blocks=blocks, independent=indep, mismatch=mismatch)


def berbee_mismatch_probability(chain: MarkovChainSpec, m: int, k: int,
                                reps: int, seed: int):
    """Empirical P(any block mismatches) over `reps` coupled realizations,
    with its standard error."""
    if reps < 1:
        raise ChainError("reps must be >= 1")
    hits = 0
    for rng, size in seeded_chunks(seed, reps, MIX_CHUNK):
        res = berbee_couple(chain, m, k, size, rng)
        hits += int(np.count_nonzero(res.mismatch.any(axis=1)))
    p = hits / reps
    return p, math.sqrt(p * (1.0 - p) / reps)


# ---------------------------------------------------------------------------
# covariance inequality and tau


def covariance_bound_check(chain: MarkovChainSpec, n: int, f: np.ndarray,
                           g: np.ndarray, p: float):
    """|E f(X_{j+n}) g(X_j) - E f E g| vs 2 psi_bar(n)^{1/p} ||f||_p ||g||_q,
    everything exact by enumeration over state pairs under stationarity."""
    if p <= 1.0:
        raise ChainError("p must exceed 1")
    q = p / (p - 1.0)
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    pi = chain.pi
    Pn = np.linalg.matrix_power(chain.P, n)
    exy = float(np.einsum("s,s,st,t->", pi, g, Pn, f))
    lhs = abs(exy - float(pi @ f) * float(pi @ g))
    psi = psi_bar_coefficient(chain.P, n, pi)
    rhs = (2.0 * psi ** (1.0 / p)
           * float(pi @ np.abs(f) ** p) ** (1.0 / p)
           * float(pi @ np.abs(g) ** q) ** (1.0 / q))
    return lhs, rhs, (lhs / rhs if rhs > 0.0 else math.inf)


def tau_n(psi_m: float, m: int, n: int, k: int) -> float:
    """tau_n with tau_n^2 = psi(m) + n psi(m)^2 + k psi(m)^{1/2}.

    m only labels the gap the coefficient was computed at; it does not enter
    the formula."""
    if psi_m < 0.0:
        raise ChainError("psi must be >= 0")
    return math.sqrt(psi_m + n * psi_m * psi_m + k * math.sqrt(psi_m))


# ---------------------------------------------------------------------------
# tail-ratio experiment on normalized block sums


def exact_block_sum_variance(chain: MarkovChainSpec, n: int, alpha: float) -> float:
    """E S_n^2 for the interlaced sum, exact from the block law in k steps.

    Every block starts stationary, so with mu and v the block sum's first
    and second moments given the start state,
        E S_n^2 = k pi v + 2 sum_{d=1}^{k-1} (k - d) (pi A) Q^{d-1} mu,
    where A[s, t] = E[Y 1{next start t} | start s] and Q[s, t] = P(next
    start t | start s)."""
    m, k, _ = block_indices(n, alpha)
    ys, law, hop = _block_law(chain, m)
    law_y = law.sum(axis=2)
    mu, v = law_y @ ys, law_y @ (ys * ys)
    A = np.einsum("sie,i,et->st", law, ys, hop)
    Q = law.sum(axis=1) @ hop
    row = chain.pi @ A
    cross = []
    for d in range(1, k):
        cross.append((k - d) * float(row @ mu))
        row = row @ Q
    return k * float(chain.pi @ v) + 2.0 * math.fsum(cross)


def _block_tables(chain: MarkovChainSpec, m: int, k: int):
    """The tables that draw 1, 2, 4, ..., j consecutive blocks of length m
    with one uniform each, for a path of k blocks.  Entry b is (values,
    joint, tables) for 2^b blocks: joint[s, i, t] = P(total values[i], next
    start t | start s), and `tables` are the alias tables of its rows, one
    per start state, flattened over (i, t).

    The first is the block law bridged over the gap, joint[s, i, t] =
    sum_e law[s, i, e] P^{m+1}[e, t]; each next one is its predecessor
    doubled (`double_block_law`).  The doubling stops before 2j > k, or
    before a table would have more than BLOCK_TABLE_CELLS cells per row.
    Like the block law, the tables are kept on the chain, per m; a later
    call with a larger k extends them."""
    ladder = chain._block_tables.setdefault(m, [])
    S = chain.P.shape[0]
    while len(ladder) < k.bit_length():
        if ladder:
            table = double_block_law(*ladder[-1][:2], BLOCK_TABLE_CELLS)
            if table is None:
                break
        else:
            ys, law, hop = _block_law(chain, m)
            table = ys, np.einsum("sie,et->sit", law, hop)
        values, joint = table
        ladder.append((values, joint, alias_tables(joint.reshape(S, -1))))
    return ladder[:k.bit_length()]


def simulate_block_sums(chain: MarkovChainSpec, n: int, alpha: float,
                        budget: int, seed: int) -> np.ndarray:
    """S_n for `budget` independent stationary realizations.

    A block's sum and the next block's start depend only on its start
    state, so the joint law of 2j consecutive blocks is that of j blocks
    composed with itself (`_block_tables`).  One uniform draws the start
    state from pi; then each uniform draws, from the current start state's
    row of one table, the total of 2^b blocks together with the next start:
    k // j draws from the table of the largest j, and one from the table of
    2^b blocks for each set bit b of k mod j (`draw_plan`).  The last draw's
    next start is dropped."""
    if budget < 1:
        raise ChainError("budget must be >= 1")
    m, k, _ = block_indices(n, alpha)
    S = chain.P.shape[0]
    levels = []
    for values, _, tables in _block_tables(chain, m, k):
        # per outcome (i, t): the total, and the next start t
        levels.append((np.repeat(values, S), np.tile(np.arange(S), values.size),
                       tables, values.size * S))
    plan = [levels[b] for b in draw_plan(k, len(levels))]
    # ends at exactly 1: a plain cumsum of pi can end just below it, and a
    # uniform past the end would start a path in no state
    cum_pi = np.cumsum(chain.pi / chain.pi.sum())
    cum_pi[-1] = 1.0
    out = np.empty(budget)
    done = 0
    for rng, size in seeded_chunks(seed, budget, MIX_CHUNK):
        state = np.searchsorted(cum_pi, rng.random(size), side="right")
        total = np.zeros(size)
        for value, nxt, tables, width in plan:
            idx = alias_draw(tables, state * width, width, rng.random(size))
            total += value[idx]
            state = nxt[idx]
        out[done:done + size] = total
        done += size
    return out


def mixing_tail_experiment(chain: MarkovChainSpec, n: int, alpha: float,
                           x_grid, budget: int, seed: int):
    """P(S_n / sqrt(E S_n^2) > x) against 1 - Phi(x), with the block-sum
    theorem envelope attached.

    Returns (RatioReport, info dict).  The envelope uses rho = 1, eps-like
    scale n^{-(1/2 - alpha)} and delta = tau_n from the exact psi_bar(m); it is
    flagged unusable when tau_n >= 1.  The info also records how the sums
    were drawn: `blocks_per_draw`, the most blocks one uniform draws, and
    `draws_per_path`, the table draws per path (one more uniform draws its
    start state)."""
    check_x_grid(x_grid)
    m, k, _ = block_indices(n, alpha)
    es2 = exact_block_sum_variance(chain, n, alpha)
    scale = math.sqrt(es2)
    psi_m = psi_bar_coefficient(chain.P, m, chain.pi)
    tau = tau_n(psi_m, m, n, k)
    cert = certify_chain(chain, n_max=max(m, 10), m=min(m, 20))
    params = BoundParams(rho=1.0, eps_n=n ** -(0.5 - alpha), delta_n=tau, c=1.0)
    sums = simulate_block_sums(chain, n, alpha, budget, seed)
    levels = len(_block_tables(chain, m, k))
    rows = []
    flags_global = ["envelope_undefined"] if tau >= 1.0 else []
    for x in x_grid:
        hits = int(np.count_nonzero(sums > x * scale))
        p = hits / budget
        se = math.sqrt(p * (1.0 - p) / budget)
        ci = clopper_pearson(hits, budget)
        rows.append(ratio_row(x, p, params, se=se, ci_lo=ci[0], ci_hi=ci[1],
                              ess=float(budget), n_samples=budget, seed=seed,
                              lam=0.0, flags=list(flags_global)))
    info = {"m": m, "k": k, "es2": es2, "tau_n": tau, "psi_bar_m": psi_m,
            "c1": cert.c1, "c2": cert.c2,
            "beta_fit": (cert.a1, cert.a2, cert.tau),
            "envelope_defined": tau < 1.0,
            "blocks_per_draw": 1 << (levels - 1),
            "draws_per_path": len(draw_plan(k, levels))}
    return RatioReport(rows=rows), info
