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
joint law of its sum and end state given its start (`_block_law`), which
one numpy forward pass builds with every sum in whole units of 1e-12.  The
block-sum sampler draws 2^b blocks with one uniform, from that table
bridged over the gap and doubled b times along those units (`_block_tables`,
through `alias.doubled`, the models' doubling routine too), and the tail
experiment integrates the last of those draws exactly (`_completion`), their
law built by the engine that the models' completions use too, at their cap
(`alias.last_draws_law`, `alias.COMPLETION_CELLS`).  At the CLI defaults a
path integrates all 13 of its draws and takes one uniform, its stationary
start state; only the tables that are drawn get alias tables, so there
none do."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alias import (BLOCK_TABLE_CELLS, alias_draw, alias_tables, distinct_cells, doubled,
                    draw_plan, joined, last_draws_law, lattice_tail, tail_index,
                    tail_lookup)
from .bounds import BoundParams
from .montecarlo import (RatioReport, check_x_grid, estimate_from_sums, ratio_row,
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
        self._alias_tables = {}  # (m, b) -> alias tables of ladder level b, once drawn
        self._completions = {}  # (m, k) -> _completion(self, m, k)
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
    ys, law = _block_law(chain, m)[:2]
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


def _block_law(chain: MarkovChainSpec, m: int):
    """The law of one block as read-only arrays: (ys, law, hop, units),
    where units holds the sorted block sums in whole units of 1e-12 and ys
    the same sums as floats, units / 1e12, law[s, i, e] = P(block sum ys[i],
    end state e | start s) and hop = P^{m+1} carries an end state to the
    next block's start.  Every block-sum computation derives from this one
    table; like pi it is derived data, so it is built once per (chain, m)
    and kept on the chain.

    One forward pass builds it, over cells (start, state, sum so far), the
    sum in units, with f rounded to units once, so a sum does not depend on
    the order of its states (a walk that rounds every partial sum to 12
    decimals can split one sum into several).  A step moves every cell to
    each state t with P[state, t] > 0, in order, and merges the moves that
    land on one cell (`distinct_cells`).  The cells are kept in the order
    they first appear, so each cell's probability is summed in the order of
    a walk over a dict of cells, move by move."""
    if m not in chain._block_laws:
        S = chain.P.shape[0]
        # every sum, and the span of the sums, then stays below 2^62 units
        if m * np.abs(chain.f).max() >= 2.0 ** 61 / 1e12:
            raise ChainError("block sums too large for int64 units of 1e-12: "
                             "m * max |f| must stay below 2.3e6")
        f = np.rint(chain.f * 1e12).astype(np.int64)
        src, dst = np.nonzero(chain.P > 0.0)
        move = chain.P[src, dst]
        cells, p = np.stack((np.arange(S), np.arange(S), f)), np.ones(S)
        for _ in range(m - 1):
            # every move of every cell, the cells in order, each cell's
            # moves by next state
            a, b = joined(src, cells[1])
            t = dst[b]
            cells = np.stack((cells[0, a], t, cells[2, a] + f[t]))
            first, cell = distinct_cells(cells)
            order = np.argsort(first)
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            cells, p = cells[:, first[order]], np.bincount(rank[cell], weights=p[a] * move[b])
        units, col = np.unique(cells[2], return_inverse=True)
        law = np.zeros((S, units.size, S))
        law[cells[0], col, cells[1]] = p
        hop = np.linalg.matrix_power(chain.P, m + 1)
        block = units / 1e12, law, hop, units
        for a in block:
            a.flags.writeable = False
        chain._block_laws[m] = block
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
    ys, law, hop = _block_law(chain, m)[:3]
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
    ys, law, hop = _block_law(chain, m)[:3]
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
    with one uniform each, for a path of k blocks.  Entry b is (units,
    joint) for 2^b blocks: joint[s, i, t] = P(total units[i] / 1e12, next
    start t | start s), the totals in whole units of 1e-12 as in the block
    law.  A path draws from the rows of joint, one per start state,
    flattened over (i, t), through their alias tables (`_block_paths`).

    The first is the block law bridged over the gap, joint[s, i, t] =
    sum_e law[s, i, e] P^{m+1}[e, t]; each next one is its predecessor
    doubled (`doubled`), which puts the total of blocks i and i' at i + i'.
    That holds when the units are equally spaced, and the 2Y - 1 totals of
    two blocks are then the pair sums of (0, i) and of (i, Y - 1).  The
    doubling stops before 2j > k, before a table would have more than
    BLOCK_TABLE_CELLS (total, next start) cells per row, counted densely
    as its alias rows hold them, or at once when the block totals are not
    equally spaced; such a chain draws one block per uniform.  It stops too
    before a table's units could pass 2^62, so that no sum of them wraps
    around int64.  Like the block law, the tables are kept on the chain, per
    m; a later call with a larger k extends them."""
    ladder = chain._block_tables.setdefault(m, [])
    S = chain.P.shape[0]
    while len(ladder) < k.bit_length():
        if ladder:
            units, joint = ladder[-1]
            Y = units.size
            if ((2 * Y - 1) * S > BLOCK_TABLE_CELLS or np.diff(units, 2).any()
                    or np.abs(units).max() >= 1 << 61):
                break
            # (2Y - 1) S <= BLOCK_TABLE_CELLS, so no row reaches the cap; a
            # chain's blocks carry no steps per law
            s, r = np.nonzero(joint.any(axis=1))
            law, s, t, _ = doubled(joint[s, :, r], s, r, np.zeros((s.size, 0), dtype=np.int64))
            joint = np.zeros((S, 2 * Y - 1, S))
            joint[s, :, t] = law
            units = np.concatenate((units[0] + units, units[1:] + units[-1]))
        else:
            _, law, hop, units = _block_law(chain, m)
            joint = np.einsum("sie,et->sit", law, hop)
        ladder.append((units, joint))
    return ladder[:k.bit_length()]


def _completion(chain: MarkovChainSpec, m: int, k: int):
    """(draws, index): the last `draws` table draws of a k-block path and
    the index of the tail of their total given the block-start state
    before them, one row per start state, for `tail_lookup`.  Their law is
    `last_draws_law`'s, at most `alias.COMPLETION_CELLS` lattice steps wide
    per start state, the models' cap too, from the ladder's nonzero
    (total, next start) cells, each total in steps from its table's least.  The stationary start may
    be any state, so a path may start the plan's first draw from every
    state, and all its draws may be integrated: at the CLI defaults all 13
    are, over 4,995 steps, and a path draws only its start state.  The
    steps are lattice steps when the tables' units are equally spaced, as
    every doubled table's are; a total of the draws is the sum of their
    least units plus its steps times the units a step, and the total of the
    draws before them the sum of their least units plus whole steps, each
    over 1e12 as the tables' totals are (`lattice_tail`).  A chain off a
    lattice, one where not even two draws fit, or one whose completed
    totals would pass 2^62 units integrates its last draw only, at the
    table's own totals (`tail_index`).  Kept on the chain, per (m, k)."""
    if (m, k) not in chain._completions:
        ladder = _block_tables(chain, m, k)
        plan = draw_plan(k, len(ladder))
        S = chain.P.shape[0]
        nonzero = [(joint, np.nonzero(joint)) for _, joint in ladder]
        cells = [(i, joint[s, i, t], s, t) for joint, (s, i, t) in nonzero]
        top = ladder[-1][0]
        law = None if np.diff(top, 2).any() else last_draws_law(cells, plan, np.arange(S), S)
        units, joint = ladder[plan[-1]]
        index = 1, tail_index(np.tile(units / 1e12, (S, 1)), joint.sum(axis=2))
        if law is not None:
            D, lo, step, law = law
            least = sum(int(ladder[b][0][0]) for b in plan[-D:])
            unit = int(top[-1] - top[0]) // max(top.size - 1, 1)
            if abs(least) + unit * (int(lo.max()) + step * (law[0].shape[1] - 1)) < 1 << 62:
                drawn = sum(int(ladder[b][0][0]) for b in plan[:-D])
                index = D, lattice_tail(law, lo, step, unit / 1e12, drawn / 1e12, least / 1e12)
        chain._completions[m, k] = index
    return chain._completions[m, k]


def _block_paths(chain: MarkovChainSpec, m: int, k: int, integrated: int,
                 budget: int, seed: int):
    """(total, state) of `budget` stationary k-block paths drawn up to their
    last `integrated` table draws: the sum of the blocks drawn and the start
    state of the next block (see `simulate_block_sums`).  Only the ladder
    levels that the paths draw from get alias tables, each built once and
    kept on the chain, per (m, level)."""
    S = chain.P.shape[0]
    ladder = _block_tables(chain, m, k)
    plan = draw_plan(k, len(ladder))
    drawn = []
    for b in plan[:len(plan) - integrated]:
        units, joint = ladder[b]
        if (m, b) not in chain._alias_tables:
            chain._alias_tables[m, b] = alias_tables(joint.reshape(S, -1))
        # per outcome (i, t): the total, and the next start t
        drawn.append((np.repeat(units / 1e12, S), np.tile(np.arange(S), units.size),
                      chain._alias_tables[m, b], units.size * S))
    # ends at exactly 1: a plain cumsum of pi can end just below it, and a
    # uniform past the end would start a path in no state
    cum_pi = np.cumsum(chain.pi / chain.pi.sum())
    cum_pi[-1] = 1.0
    total, state = np.empty(budget), np.empty(budget, dtype=np.intp)
    done = 0
    for rng, size in seeded_chunks(seed, budget, MIX_CHUNK):
        at = np.searchsorted(cum_pi, rng.random(size), side="right")
        sums = np.zeros(size)
        for value, nxt, tables, width in drawn:
            idx = alias_draw(tables, at * width, width, rng.random(size))
            sums += value[idx]
            at = nxt[idx]
        total[done:done + size], state[done:done + size] = sums, at
        done += size
    return total, state


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
    return _block_paths(chain, m, k, 0, budget, seed)[0]


def mixing_tail_experiment(chain: MarkovChainSpec, n: int, alpha: float,
                           x_grid, budget: int, seed: int):
    """P(S_n / sqrt(E S_n^2) > x) against 1 - Phi(x), with the block-sum
    theorem envelope attached.

    Each path is drawn as `simulate_block_sums` draws it, but for its last
    draws, which are integrated exactly (conditional Monte Carlo; Asmussen
    & Glynn, *Stochastic Simulation*, 2007, ch. V): with T the total drawn
    and s the next start, the path contributes Y = P(T + D > x sqrt(E
    S_n^2) | s), D the total of the draws left (`_completion`).  E[Y] is the
    tail, and a row's SE, ESS and normal 95% interval come from the sample
    of Y (`estimate_from_sums`).

    Returns (RatioReport, info dict).  The envelope uses rho = 1, eps-like
    scale n^{-(1/2 - alpha)} and delta = tau_n from the exact psi_bar(m); it is
    flagged unusable when tau_n >= 1.  The info also records how the sums
    were drawn: `blocks_per_draw`, the most blocks one uniform draws,
    `draws_per_path`, the table draws each path takes (one more uniform
    draws its start state), and `draws_integrated`, the draws integrated
    after them."""
    check_x_grid(x_grid)
    if budget < 1:
        raise ChainError("budget must be >= 1")
    m, k, _ = block_indices(n, alpha)
    es2 = exact_block_sum_variance(chain, n, alpha)
    scale = math.sqrt(es2)
    psi_m = psi_bar_coefficient(chain.P, m, chain.pi)
    tau = tau_n(psi_m, m, n, k)
    cert = certify_chain(chain, n_max=max(m, 10), m=m)
    params = BoundParams(rho=1.0, eps_n=n ** -(0.5 - alpha), delta_n=tau, c=1.0)
    integrated, index = _completion(chain, m, k)
    total, state = _block_paths(chain, m, k, integrated, budget, seed)
    levels = len(_block_tables(chain, m, k))
    rows = []
    flags_global = ["envelope_undefined"] if tau >= 1.0 else []
    for x in x_grid:
        y = tail_lookup(index, x * scale, state, total)
        est = estimate_from_sums(float(y.sum()), float((y * y).sum()), budget, "conditional")
        rows.append(ratio_row(x, est.p_hat, params, se=est.std_err, ci_lo=est.ci95[0],
                              ci_hi=est.ci95[1], ess=est.ess, n_samples=budget, seed=seed,
                              lam=0.0, flags=est.flags + flags_global))
    draws = len(draw_plan(k, levels))
    info = {"m": m, "k": k, "es2": es2, "tau_n": tau, "psi_bar_m": psi_m,
            "c1": cert.c1, "c2": cert.c2,
            "beta_fit": (cert.a1, cert.a2, cert.tau),
            "envelope_defined": tau < 1.0,
            "blocks_per_draw": 1 << (levels - 1),
            "draws_per_path": draws - integrated,
            "draws_integrated": integrated}
    return RatioReport(rows=rows), info
