"""Martingale-difference models with exact finite-support conditional laws.

Every model generates a standardized martingale X_n = sum_i eta_i / sqrt(n)
from unscaled differences eta_i whose conditional law given the history
summary is a finite atom list.  Finite support keeps tilting, moment checks
and certification exact (finite sums, no quadrature).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np
from scipy.special import bdtrc, gammaln, xlogy

from .alias import (distinct_cells, doubled, draw_plan, first_over, inversion_draw,
                    inversion_tables, last_draws_law, lattice_tail, tail_index, tail_lookup)

ATOL = 1e-12

# a model whose breadth-first search visits more states than this is refused
MAX_STATES = 100_000

# geometric grid on which certificates are searched
DEFAULT_GRID = tuple(2.0 ** j for j in range(-6, 11))

# the block sampler's forward pass visits at most this many (start state,
# atom sequence) cells
BLOCK_CELLS = 1 << 15

# most cells `terminal_law` tabulates (a two-atom i.i.d. law has n + 1): a
# memory bound, as an estimate on the cells holds about 80 bytes a cell,
# 20 MB at this cap
LATTICE_CELLS = 1 << 18


def _check_horizon(n: int, rho: float):
    """Refuse a horizon below 1 or a rho outside (0, 1]."""
    if n < 1:
        raise ModelError("horizon n must be >= 1")
    if not (0.0 < rho <= 1.0):
        raise ModelError("rho must lie in (0, 1]")


def block_steps(states: int, width: int) -> int:
    """Steps per block of the sampler for a state table with `states` rows
    of `width` atoms: the largest b with states * width**b <= BLOCK_CELLS,
    and at least 1."""
    b = 1
    while states * width ** (b + 1) <= BLOCK_CELLS:
        b += 1
    return b


class ModelError(ValueError):
    pass


class CertificationError(RuntimeError):
    """Raised when no grid point satisfies the one-sided moment condition.

    Carries the worst offending law and the inequality numbers so the caller
    can see exactly what failed.
    """

    def __init__(self, message, witness_law=None, log_lhs=None, log_rhs=None):
        super().__init__(message)
        self.witness_law = witness_law
        self.log_lhs = log_lhs
        self.log_rhs = log_rhs


@dataclass(frozen=True)
class ConditionalLaw:
    """Finite-support law of one martingale difference: ((value, prob), ...),
    validated as a model gives it.  Its moments are read from the model's
    state table (`MartingaleModel.second_moments`, `moment_condition`)."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.atoms) < 2:
            raise ModelError("need at least 2 atoms")
        values, probs = zip(*self.atoms)
        if len(set(values)) != len(values):
            raise ModelError("atom values must be distinct")
        if any(not (0.0 < p <= 1.0) for p in probs):
            raise ModelError("atom probs must lie in (0, 1]")
        if abs(math.fsum(probs) - 1.0) > ATOL:
            raise ModelError("atom probs must sum to 1")
        if abs(math.fsum(p * v for v, p in self.atoms)) > ATOL:
            raise ModelError("law must have mean zero (martingale difference)")


@dataclass(frozen=True)
class Certificate:
    """Verified constants for the one-sided moment and variance conditions."""

    rho: float
    K: float
    L: float
    N: float
    n: int

    @property
    def eps_n(self) -> float:
        return max(self.K, self.L) / math.sqrt(self.n)

    @property
    def delta_n(self) -> float:
        # default convention: delta from the variance constant N
        return self.N / math.sqrt(self.n)

    @property
    def delta_n_from_L(self) -> float:
        # alternative convention printed in some statements of the result
        return self.L / math.sqrt(self.n)

    def to_json(self) -> str:
        return json.dumps({
            "rho": self.rho, "K": self.K, "L": self.L, "N": self.N, "n": self.n,
            "eps_n": self.eps_n, "delta_n": self.delta_n,
            "delta_n_from_L": self.delta_n_from_L,
        })


@dataclass
class TerminalBatch:
    """Vectorized terminal values of many simulated paths.  When the last
    draws of each path are integrated rather than drawn (`simulate_terminal`
    with `past`), x and log_weight are those of the draws before them and
    tail[i] = P(X_n > past | those draws) under P."""

    x: np.ndarray           # X_n per path, or X before the integrated draws
    log_weight: np.ndarray  # log dP/dP_lam of the draws: -lam*X_n + Psi_n
    tail: np.ndarray | None = None


@dataclass(frozen=True)
class TerminalLaw:
    """The exact law of a model's terminal value under P_lam on finitely
    many cells."""

    log_prob: np.ndarray    # log P_lam(cell)
    x: np.ndarray           # X_n on the cell
    log_weight: np.ndarray  # -lam*X_n + Psi_n on the cell


@dataclass(frozen=True)
class StateTable:
    """A model's reachable state machine, compiled once.  States are numbered
    in breadth-first first-visit order from the initial state 0; `laws` holds
    the distinct conditional laws in first-visit order, `law_of[s]` indexes
    state s's law, and `T[s, a]` is the state after atom a of that law (rows
    of laws with fewer atoms are padded with their last entry).  `values[i,
    a]` and `probs[i, a]` are atom a's unscaled value and its probability in
    law i, padded with 0.0 to the table's width, and `real[i, a]` marks the
    atoms that are not padding."""

    states: tuple
    laws: tuple[ConditionalLaw, ...]
    law_of: np.ndarray
    T: np.ndarray
    values: np.ndarray
    probs: np.ndarray
    real: np.ndarray


@dataclass(frozen=True)
class BlockTable:
    """The law of one block of `steps` steps under P_lam from each
    block-start state, in `width` cells per state, flattened over (row,
    cell).  Row 0 is state 0; the others are the states a block can end
    in, in the order blocks first reach them.  A row's cells are sorted by
    dx, so that a draw by inversion grows with its uniform, and padding
    cells, of probability 0, come last."""

    steps: int
    width: int
    prob: np.ndarray   # outcome probability
    dx: np.ndarray     # sum of the block's scaled values
    dpsi: np.ndarray   # sum of psi_s(lam) over the block's states
    end: np.ndarray    # row of the end state
    inverse: tuple     # inversion_tables of prob, row by row


@dataclass(frozen=True)
class _BlockLaw:
    """The law of `steps` steps from each block-start row under P, before
    any tilt, in `width` cells per row, flattened over (row, cell).  A cell
    holds the atom sequences from its row with one end row, one count of
    steps per law and one value sum: under P_lam they share the factor
    exp(lam * dx - Psi), Psi = sum over laws of count * psi(lam).  `log_p`
    is log P(cell) (-inf on padding), `dx` the sum of the scaled values,
    `pos` that sum, rounded to 12 decimals unscaled, in whole units of the
    model's value lattice, each unit `unit` scaled, `count` the steps per
    law and `end` the end row.  A row's cells are sorted by dx, ties in the
    order they come, whatever the tilt."""

    steps: int
    width: int
    unit: float
    log_p: np.ndarray
    dx: np.ndarray
    pos: np.ndarray
    count: np.ndarray
    end: np.ndarray

    @classmethod
    def of(cls, steps, unit, rows, row, end, count, dx, pos, p):
        """The cells with these fields, laid out in rows of one width, each
        row's sorted by dx."""
        order = np.lexsort((dx, row))
        row, end, count, dx, pos, p = (a[order] for a in (row, end, count, dx, pos, p))
        col = np.arange(row.size) - np.searchsorted(row, row)
        width = int(col.max()) + 1

        def full(a, pad=0):
            out = np.full((rows * width, *a.shape[1:]), pad, dtype=a.dtype)
            out[row * width + col] = a
            return out

        return cls(steps, width, unit, full(np.log(p), -np.inf), full(dx), full(pos),
                   full(count), full(end))

    def cells(self):
        """(pos, p, start row, end row) of the cells that are not padding,
        as `last_draws_law` reads a table."""
        real = self.log_p > -np.inf
        return (self.pos[real], np.exp(self.log_p[real]), np.flatnonzero(real) // self.width,
                self.end[real])

    def tilted(self, lam, log_mgf) -> BlockTable:
        """The table under P_lam, whose per-law log mgfs are log_mgf; the
        probabilities are taken in log space."""
        dpsi = self.count @ log_mgf
        prob = np.exp(self.log_p + lam * self.dx - dpsi)
        return BlockTable(self.steps, self.width, prob, self.dx, dpsi, self.end,
                          inversion_tables(prob.reshape(-1, self.width)))


class MartingaleModel:
    """Base class: a pure state machine over history summaries.

    Subclasses define `initial_state`, the unscaled conditional law at each
    state and the state transition, over finitely many reachable states.
    Everything else -- reachable laws, the variance deviation, whether the
    differences are i.i.d., the sampler and the path walks -- is derived from
    the compiled `table`.  The scaled increment is eta / sqrt(n).
    """

    def __init__(self, name: str, n: int, rho: float):
        _check_horizon(n, rho)
        self.name = name
        self.n = n
        self.rho = rho
        self._block_cache = {}  # lam -> block_tables(lam)

    def initial_state(self):
        raise NotImplementedError

    def law_at(self, state) -> ConditionalLaw:
        """Unscaled conditional law of the next difference eta."""
        raise NotImplementedError

    def next_state(self, state, eta: float):
        raise NotImplementedError

    @cached_property
    def table(self) -> StateTable:
        """Breadth-first search from the initial state over law_at and
        next_state; built on first use."""
        states = [self.initial_state()]
        index = {states[0]: 0}
        laws, law_of, rows = {}, [], []
        for state in states:  # grows as new states are visited
            law = self.law_at(state)
            law_of.append(laws.setdefault(law, len(laws)))
            row = []
            for v, _ in law.atoms:
                nxt = self.next_state(state, v)
                if nxt not in index:
                    if len(states) == MAX_STATES:
                        raise ModelError(f"{self.name}: more than {MAX_STATES} "
                                         "reachable states")
                    index[nxt] = len(states)
                    states.append(nxt)
                row.append(index[nxt])
            rows.append(row)
        width = max(len(r) for r in rows)
        T = np.array([r + r[-1:] * (width - len(r)) for r in rows], dtype=np.intp)
        real = np.arange(width) < np.array([len(law.atoms) for law in laws])[:, None]
        values, probs = np.zeros(real.shape), np.zeros(real.shape)
        values[real] = [v for law in laws for v, _ in law.atoms]
        probs[real] = [p for law in laws for _, p in law.atoms]
        return StateTable(states=tuple(states), laws=tuple(laws),
                          law_of=np.array(law_of, dtype=np.intp), T=T,
                          values=values, probs=probs, real=real)

    @cached_property
    def second_moments(self) -> np.ndarray:
        """E[eta^2] of each law of `table`: the math.fsum of p v^2 over its
        atoms, from `table.values` and `.probs`, whose padding adds 0.0."""
        t = self.table
        return np.array([math.fsum(row) for row in (t.probs * t.values * t.values).tolist()])

    def moment_condition(self, rho: float, K, L):
        """(log LHS, log RHS) of the one-sided moment condition
        E[|eta|^{2+rho} e^{K eta+}] <= L^rho E[eta^2], one row per law of
        `table`: log LHS with a column per K of `K`, log RHS with a column
        per L of `L`, each law's for every K at once, read from
        `table.values` and `.probs`.

        In log space, so that deep negative atoms with enormous exponential
        moments do not overflow: a nonzero atom's term is log p + (2 + rho)
        log|v| + K max(v, 0), and per (law, K) the largest term is factored
        out before the exponentials are summed by math.fsum.  The logs and
        exponentials are math's, one per term, so a moment is the same float
        whatever else is on the grid."""
        t = self.table
        # padding holds 0.0, so it adds exp(-inf) = 0.0 as a zero atom does
        base = np.array([[math.log(p) + (2.0 + rho) * math.log(abs(v)) if v else -math.inf
                          for v, p in zip(*law)]
                         for law in zip(t.values.tolist(), t.probs.tolist())])
        terms = base[:, None, :] + np.asarray(K)[:, None] * np.maximum(t.values, 0.0)[:, None, :]
        top = terms.max(axis=2)
        log_lhs = top + np.reshape([math.log(math.fsum(map(math.exp, row))) for row in (
            terms - top[..., None]).reshape(-1, terms.shape[2]).tolist()], top.shape)
        log_m2 = np.array([math.log(m) for m in self.second_moments.tolist()])
        return log_lhs, rho * np.array([math.log(x) for x in L]) + log_m2[:, None]

    def variance_deviation(self) -> float:
        """Exact worst case of |sum_i E[eta_i^2 | F_{i-1}] - n| over paths,
        block by block.  From each block-start row (`_block_rows`) the B
        steps of a block are walked, carrying per (row, state reached) the
        least and the greatest left fold of E[eta^2 | state] - 1 over the
        atom sequences into it: as adding is monotone, these are the
        extremes over the sequences themselves, float for float.  Per
        (start row, end row) they form two R x R matrices, min-plus and
        max-plus (kept negated, so both compose as minima).  Row 0's vector
        goes through the n // B blocks by doubling along the binary digits
        of n // B while a product's (2, R, R, R) temporary has at most 2^16
        entries, and otherwise one block at a time along the (row, state)
        pairs the walk reached, with no R x R array.  The n mod B steps left
        over go one step at a time over every state; when n < B that is all
        n of them, and neither the rows nor the block walk are made.  A
        one-state model takes blocks of one step, all doubled.

        Each path's sum is a float sum of its steps' terms in another order
        than a left fold, so the result may differ from a step-by-step
        forward pass in its last bits; every float sum of n terms lies
        within n u max|partial sum| of the exact one, u the unit roundoff."""
        t = self.table
        S, width = t.T.shape
        # with one state every block is alike, so one step makes a block and
        # the doubling takes all n
        steps = block_steps(S, width) if S > 1 else 1
        k = self.n // steps
        # per state, E[eta^2 | state] - 1, then its negation
        inc = (self.second_moments[t.law_of] - 1.0) * np.array([[1.0], [-1.0]])
        # per state, the least sum and the greatest negated; inf where no
        # path ends
        at = np.full((2, S), math.inf)
        at[:, 0] = 0.0
        half = S * np.arange(2)[:, None]
        edges = []
        if k:  # n < B takes no block, and needs no rows
            rows, row_of = self._block_rows
            R = rows.size
            # per (row, state) that a block from the row reaches, step by
            # step: the least left-folded sum of the sequences into it, then
            # the greatest negated
            key, ext = np.arange(R) * S + rows, np.zeros((2, R))
            for _ in range(steps):
                s = key % S
                key, inv = np.unique(((key - s)[:, None] + t.T[s]).ravel(), return_inverse=True)
                ext, prev = np.full((2, key.size), math.inf), np.repeat(ext + inc[:, s], width, axis=1)
                np.minimum.at(ext, (np.arange(2)[:, None], inv), prev)
            if 2 * R ** 3 <= 1 << 16:
                # the same per (row, end row), inf where no block joins them
                # (every block ends in a row), composed by doubling
                block = np.full((2, R, R), math.inf)
                block[:, key // S, row_of[key % S]] = ext
                v = np.where(np.arange(R) > 0, math.inf, np.zeros((2, 1)))  # 0.0 at row 0
                while k:
                    if k & 1:
                        v = (v[:, :, None] + block).min(axis=1)
                    k >>= 1
                    if k:
                        block = (block[:, :, :, None] + block[:, None]).min(axis=2)
                at[:, rows] = v
            # the k blocks not doubled, one min-plus step each from a row to
            # the states its blocks end in
            edges = [((half + rows[key // S]).ravel(), (half + key % S).ravel(), ext.ravel())] * k
        # then the steps left over
        src = np.repeat(np.arange(2 * S), width)
        edges += [(src, (t.T + half[..., None]).ravel(), inc.ravel()[src])] * (self.n % steps)
        for frm, to, d in edges:
            at, prev = np.full(2 * S, math.inf), at.reshape(-1)
            np.minimum.at(at, to, prev[frm] + d)
        # least <= greatest, so the largest |sum| is -at.min() >= 0; abs
        # keeps 0.0 unsigned
        return float(abs(at.min()))

    @property
    def iid(self) -> bool:
        return len(self.table.states) == 1

    def law_arrays(self, lam: float):
        """(values, probs, log_mgf) of the laws under the conjugate measure
        P_lam: the atom values scaled by 1/sqrt(n) and their probabilities
        proportional to p e^{lam v} per (law, atom), padded with 0.0 where
        `table.real` is False, and the log mgf log E[e^{lam v}] of each law.
        Every consumer of the tilted laws reads them here.

        Per law, the largest lam v is factored out before the exponentials
        are taken, and they are normalized by their exactly rounded sum, so
        no weight overflows and the atoms that underflow get probability
        0.0."""
        if not (lam >= 0.0 and math.isfinite(lam)):
            raise ValueError("lambda must be finite and >= 0")
        t = self.table
        values = t.values * (1.0 / math.sqrt(self.n))
        log_mgf = np.zeros(len(t.laws))
        if lam == 0.0:
            return values, t.probs.copy(), log_mgf
        probs = np.zeros(t.real.shape)
        for i, k in enumerate(t.real.sum(axis=1).tolist()):
            v = values[i, :k].tolist()
            shift = max(lam * a for a in v)
            w = [p * math.exp(lam * a - shift)
                 for a, p in zip(v, t.probs[i, :k].tolist())]
            z = math.fsum(w)
            probs[i, :k] = [x / z for x in w]
            log_mgf[i] = math.log(z) + shift
        return values, probs, log_mgf

    # -- simulation -------------------------------------------------------

    def simulate_terminal(self, size: int, rng: np.random.Generator,
                          lam: float = 0.0, past: float | None = None) -> TerminalBatch:
        """X_n and log weights of `size` paths under P_lam; with `past`,
        every draw of each path but the last ones, and those integrated.

        With one state, X_n depends only on how often each atom is drawn, and
        those counts are drawn as conditional binomials (Devroye 1986,
        ch. XI), in the order of `_split_order`: the other atoms first, each
        at its probability over those of the atoms not yet drawn, then the
        count of the first of the two most probable atoms of P among the m
        steps left, the second taking the rest.  For a two-atom law that is
        one binomial draw.  Otherwise the path is cut into blocks of B steps
        (`block_steps`), and one uniform draws 2^b blocks at once: their sum
        of values, their sum of log mgfs and their end state come together
        from the law of 2^b blocks at the path's block-start state
        (`block_tables`), composed by convolution along the lattice of
        value sums (`_blocks`), by inversion (`inversion_draw`).  A row's
        cells are sorted by their value sum, so the sum drawn grows with
        the uniform.  The uniforms come from rng.random, one call of `size`
        per table draw in the plan's order: a Generator's, or any object
        with that method, such as the shifted Sobol points by which the
        tilted estimator draws (`montecarlo.net_chunks`), one dimension a
        draw.  A path of k = n // B blocks
        draws as `draw_plan` says: k // j times from the table of the most
        blocks j, and once from the table of 2^b blocks for each set bit b
        of k mod j.  The n mod B steps left over come last, from the
        leftover table, the plan's last.  For regime_switch at n = 1600, B = 8
        and j = 4, so a path takes 50 uniforms.  B = 1 would draw step by
        step.

        With `past`, the last draws -- the split of the m steps, or the last
        D table draws (`_completion`: 26 of 50 for regime_switch at n =
        1600) -- are not taken: the batch holds X and the log likelihood
        ratio of the draws before them, and the exact P(X_n > past | them)
        under P (`_split_tail`, `tail_lookup`).  Under P_lam the tilt of
        the integrated draws cancels against their weight, so their law is
        the untilted one: P_lam(c) e^{-lam dx_c + dpsi_c} = P(c) for each
        table cell, and for the split its lumped factor ((p + p') / (p_lam
        + p'_lam))^m joins the prefix's weight.  Where D >= 2 draws on the
        lattice of value sums are integrated, X_n > past is decided in
        whole units of it, so a path that ends exactly at past does not
        count; a single table draw counts when the float sum X + dx
        exceeds `past`, the sum the sampler would take."""
        t = self.table
        if len(t.states) == 1:
            _, probs, log_mgf = self.law_arrays(lam)
            order = self._split_order
            p, v = probs[0, order].tolist(), t.values[0, order].tolist()
            # suffix sums, not a running difference, so the conditional
            # probabilities stay in [0, 1] when trailing tilted probabilities
            # underflow to 0; left[j] >= p[j], and an atom after the last
            # positive one gets probability 0
            left = list(accumulate(reversed(p)))[::-1]
            x, rest = np.zeros(size), np.full(size, self.n)
            for j in range(len(p) - (1 if past is None else 2)):
                if j == 0:
                    count = rng.binomial(self.n, p[0], size=size)
                    x = count * v[0]
                else:
                    count = rng.binomial(rest, p[j] / left[j] if left[j] > 0.0 else 0.0)
                    x += count * v[j]
                rest = rest - count
            scale = 1.0 / math.sqrt(self.n)
            if past is None:
                x += rest * v[-1]
                x *= scale
                return TerminalBatch(x=x, log_weight=-lam * x + self.n * log_mgf[0])
            # the drawn steps' weight, and the lumped factor of the split
            lump = math.log(math.fsum(t.probs[0, order[-2:]].tolist())) - math.log(left[-2])
            return TerminalBatch(
                x=x * scale, tail=self._split_tail(past, x, rest),
                log_weight=-lam * (x * scale) + (self.n - rest) * log_mgf[0] + rest * lump)
        tables, plan = self.block_tables(lam), self._blocks[1]
        x = np.zeros(size)
        psi = np.zeros(size)
        row = np.zeros(size, dtype=np.intp)  # block-start row 0 is state 0
        integrated, index = self._completion if past is not None else (0, None)
        for tab in [tables[b] for b in plan[:len(plan) - integrated]]:
            cell = inversion_draw(tab.inverse, row, rng.random(size))
            x += tab.dx[cell]
            psi += tab.dpsi[cell]
            row = tab.end[cell]
        return TerminalBatch(x=x, log_weight=-lam * x + psi,
                             tail=None if past is None else tail_lookup(index, past, row, x))

    @property
    def prefix_draws(self) -> int | None:
        """How many table draws each path takes in `simulate_terminal` with
        `past`, one uniform each, from one `random` call per draw: those of
        the plan of `_blocks` less the `_completion`.  None for a one-state
        model, which draws binomial counts."""
        return None if self.iid else len(self._blocks[1]) - self._completion[0]

    @cached_property
    def _split_order(self) -> list:
        """The order in which a one-state model draws its atoms' counts: the
        atoms other than the two most probable under P in table order, then
        those two in table order.  A two-atom law keeps its order."""
        common = np.argsort(-self.table.probs[0], kind="stable")[:2]
        return [a for a in range(self.table.real.sum()) if a not in common] + sorted(common.tolist())

    def _split_tail(self, past, s, m):
        """P(X_n > past) given the unscaled value sum s of the atoms drawn
        and the m steps left to the two common atoms, per path.  With k
        steps of the larger valued of the two, X_n is ((s + k1 v1) + (m -
        k1) v2) / sqrt(n) as `simulate_terminal` sums it, k1 the count of
        the first, and grows with k; the least k with X_n > past is solved
        for and then fixed up by evaluating that sum at its neighbours
        (`first_over`).  k
        is Bin(m, q) under P, q that atom's share of the two's probability,
        and its tail is taken once per distinct (m, k) by `bdtrc`: a batch
        holds few, as m is n less the few steps of the rare atoms."""
        (p1, p2), (v1, v2) = (self.table.probs[0, self._split_order[-2:]].tolist(),
                              self.table.values[0, self._split_order[-2:]].tolist())
        scale = 1.0 / math.sqrt(self.n)

        def over(k):
            k1 = k if v1 > v2 else m - k
            x = s + k1 * v1
            x += (m - k1) * v2
            return x * scale > past

        # the least k with X_n > past in exact arithmetic, from 0 to m + 1
        lo = (past / scale - s - m * min(v1, v2)) / abs(v1 - v2)
        guess = (np.floor(np.clip(lo, -1.0, m + 1.0)) + 1.0).astype(np.int64)
        k = first_over(np.minimum(guess, m + 1), m + 1, over)
        # k = m + 1 where no split is past; P(Bin(m, q) >= k) per distinct
        # (m, k), each at (m - m0) * span + k - k0 of a grid over the ranges
        # of m and k that occur
        (m0, k0), span = (int(m.min()), int(k.min())), int(k.max() - k.min()) + 1
        key = (m - m0) * span + (k - k0)
        hit = np.zeros((int(m.max()) - m0 + 1) * span, dtype=bool)
        hit[key] = True
        pairs = np.flatnonzero(hit)
        tail = np.zeros(hit.size)
        tail[pairs] = bdtrc(pairs % span + k0 - 1, pairs // span + m0,
                            (p1 if v1 > v2 else p2) / (p1 + p2))
        return tail[key]

    @cached_property
    def _completion(self):
        """(draws, index): how many of a path's last table draws
        `simulate_terminal` integrates with `past`, and the index of the
        tail of their total under P per block-start row, for
        `tail_lookup`.  The draws are those of the plan of `_blocks`, the
        leftover table last, and their law is `last_draws_law`'s, at most
        `alias.COMPLETION_CELLS` lattice steps wide per row, its totals at
        lo + step i units (`lattice_tail`).  When not even two draws fit,
        as when the value sums lie on no lattice, the last table is
        integrated alone, each cell at its own dx (`tail_index`)."""
        tables, plan = self._blocks
        rows = tables[0].log_p.size // tables[0].width
        # a path starts plan[1:] from a row its first draw ends in
        cells = [g.cells() for g in tables]
        law = last_draws_law(cells, plan[1:], cells[plan[0]][3], rows)
        g = tables[plan[-1]]
        if law is None:
            real = g.log_p > -math.inf
            return 1, tail_index(np.where(real, g.dx, math.inf).reshape(rows, -1),
                                 np.exp(g.log_p).reshape(rows, -1))
        draws, lo, step, p = law
        return draws, lattice_tail(p, lo, step, g.unit)

    def terminal_law(self, lam: float = 0.0) -> TerminalLaw | None:
        """The exact law of X_n and its log weight under P_lam when it lives
        on the n + 1 values of one count: one state with a two-atom law, cell
        k holding the paths that draw atom 0 k times.  None for every other
        model, and from LATTICE_CELLS cells on.

        X_n and the log weight of cell k are what `simulate_terminal` makes
        of a drawn count k, float for float.  log P_lam(k) = log C(n, k) +
        k log p_0 + (n - k) log p_1 is taken in log space from the tilted
        atom probabilities themselves, so it is relatively accurate in both
        tails."""
        t, n = self.table, self.n
        if t.T.shape != (1, 2) or n >= LATTICE_CELLS:
            return None
        _, probs, log_mgf = self.law_arrays(lam)
        (p0, p1), (v0, v1) = probs[0].tolist(), t.values[0].tolist()
        k = np.arange(n + 1)
        # simulate_terminal's one-state arithmetic, with count = k
        x = k * v0
        x += (n - k) * v1
        x *= 1.0 / math.sqrt(n)
        log_fact = gammaln(k + 1.0)  # log k!
        log_prob = (log_fact[-1] - log_fact - log_fact[::-1]
                    + xlogy(k, p0) + xlogy(n - k, p1))
        return TerminalLaw(log_prob=log_prob, x=x,
                           log_weight=-lam * x + n * log_mgf[0])

    @cached_property
    def _block_rows(self):
        """(rows, row_of): the block-start states, and the row of each of
        them (0 for every other state).  They are state 0 and every state
        that a block of B steps (`block_steps`) from one of them ends in,
        that is every state some path reaches after a multiple of B steps,
        in the order of the first such multiple, sorted within it.  Found
        breadth first over (state, steps mod B).  The block sampler
        (`_blocks`) and `variance_deviation` both walk blocks between these
        rows."""
        t = self.table
        steps = block_steps(*t.T.shape)
        succ = [set(row) for row in t.T.tolist()]
        # the states reached so far at each number of steps mod B
        seen = [{0}] + [set() for _ in range(steps - 1)]
        rows, frontier, step = [0], {0}, 0
        while frontier:
            step += 1
            frontier = set().union(*(succ[s] for s in frontier)) - seen[step % steps]
            seen[step % steps] |= frontier
            rows += [] if step % steps else sorted(frontier)
        row_of = np.zeros(len(t.states), dtype=np.intp)
        row_of[rows] = np.arange(len(rows))
        return np.array(rows), row_of

    @cached_property
    def _blocks(self):
        """The tilt-free part of the block tables, (tables, plan).  tables[b]
        is the `_BlockLaw` of 2^b blocks of B steps from each block-start
        state reachable from state 0, a level of the ladder, and then, when
        B does not divide n, that of the n mod B steps left over.  One
        forward pass over every atom sequence from those states gives the
        first level and the leftover table; its cells hold value sums in
        lattice units, the gcd of the differences between each law's atom
        values and its first, rounded to 12 decimals, and merge by
        `distinct_cells`.  Each next level is its predecessor doubled along
        those units (`doubled`), while 2^b blocks fit in n and a row has at
        most BLOCK_TABLE_CELLS cells.  The ladder keeps the first level alone
        when the steps per law, and so Psi, are not a function of a block's
        start and end rows, or when the value sums lie on no lattice: when
        more units lie between the least and the greatest of them than the
        first level has cells.  plan is the table each draw of a path uses:
        the levels of `draw_plan`, then the leftover table."""
        t = self.table
        S, width = t.T.shape
        steps, (rows, row_of) = block_steps(S, width), self._block_rows
        R, L, leftover = rows.size, len(t.laws), self.n % steps
        # an atom's value is its law's first atom value plus a whole number
        # of units, the gcd of those differences rounded to 12 decimals
        base = t.values[:, 0]
        units = np.round((t.values - base[:, None]) * 1e12).astype(np.int64)
        unit = np.gcd.reduce(units[t.real])
        units //= unit
        # per atom sequence: its end state, its probability (0 once it draws
        # a padded atom), its value sum in units and its steps per law
        end, p = rows[:, None], np.ones((R, 1))
        k, count = np.zeros((R, 1), dtype=np.int64), np.zeros((R, 1, L), dtype=np.int64)
        passes = {}
        for step in range(1, steps + 1):
            law = t.law_of[end]
            p = (p[..., None] * t.probs[law]).reshape(R, -1)
            k = (k[..., None] + units[law]).reshape(R, -1)
            count = np.repeat(count + np.eye(L, dtype=np.int64)[law], width, axis=1)
            end = t.T[end].reshape(R, -1)
            if step in (leftover, steps):
                passes[step] = (end, p, k, count)

        def cells(step, row_of):
            # the distinct (row, end row, steps per law, value sum) of a
            # pass, sorted, and their probabilities
            end, p, k, count = passes[step]
            real = p > 0.0
            cells = np.vstack((np.nonzero(real)[0], row_of[end[real]], count[real].T, k[real]))
            first, cell = distinct_cells(cells)
            c = cells[:, first]
            return c[0], c[1], c[2:-1].T, c[-1], np.bincount(cell, weights=p[real])

        # a value sum in whole units of the lattice that holds every
        # law's first atom value and every unit, each rounded to 12 decimals
        origin = np.round(base * 1e12).astype(np.int64)
        lattice = np.gcd.reduce(np.append(origin, unit))

        def level(steps, row, end, count, k, p):
            dx = (count @ base + k * (unit / 1e12)) * (1.0 / math.sqrt(self.n))
            pos = count @ (origin // lattice) + k * (unit // lattice)
            return _BlockLaw.of(steps, lattice / 1e12 / math.sqrt(self.n), R, row, end, count,
                                dx, pos, p)

        row, end, count, k, p = cells(steps, row_of)
        ladder = [level(steps, row, end, count, k, p)]
        blocks = self.n // steps
        pairs, first, pair = np.unique(row * R + end, return_index=True, return_inverse=True)
        lo, span = k.min(), k.max() - k.min() + 1
        # Psi is a function of a block's start and end rows when each pair of
        # them has one count of steps per law; the value sums lie on a
        # lattice when it has no more points than the level has cells
        if (count == count[first][pair]).all() and span <= k.size:
            law = np.zeros((pairs.size, span))
            law[pair, k - lo] = p
            (start, stop), counts = np.divmod(pairs, R), count[first]
            while len(ladder) < blocks.bit_length():
                two = doubled(law, start, stop, counts)
                if two is None:
                    break
                (law, start, stop, counts), lo = two, 2 * lo
                j, i = np.nonzero(law)
                ladder.append(level(steps << len(ladder), start[j], stop[j], counts[j], lo + i,
                                    law[j, i]))
        plan = draw_plan(blocks, len(ladder))
        if leftover:
            # nothing is drawn after the leftover steps, so their end states
            # are not needed: all map to row 0
            plan.append(len(ladder))
            ladder.append(level(leftover, *cells(leftover, np.zeros_like(row_of))))
        return ladder, plan

    def block_tables(self, lam: float):
        """The `BlockTable`s under P_lam of the tables of `_blocks`, in
        their order; None for a table that no draw of a path uses.  Built
        once per lam and kept, since the estimators draw one chunk at a
        time."""
        if lam not in self._block_cache:
            log_mgf = self.law_arrays(lam)[2]
            tables, plan = self._blocks
            self._block_cache[lam] = [g.tilted(lam, log_mgf) if b in plan else None
                                      for b, g in enumerate(tables)]
        return self._block_cache[lam]


def certify(model: MartingaleModel, grid=DEFAULT_GRID) -> Certificate:
    """Search the grid for the smallest (K, L) satisfying the one-sided
    moment condition on every reachable law; compute the exact variance
    constant N.

    'Smallest' means lexicographically smallest (max(K, L), L, K), since the
    theorem range constant is max(K, L)/sqrt(n).  Every law's moments are
    taken once for the whole grid (`moment_condition`), and every candidate
    is checked against every law at once.  A candidate fails at its first
    failing law, and the witness is the first candidate whose failure is
    the worst, in log LHS - log RHS.  N^2 is `variance_deviation`."""
    grid = np.asarray(grid, dtype=float)
    log_lhs, log_rhs = model.moment_condition(model.rho, grid, grid)
    # the candidates (K, L) = (grid[k], grid[l]) in order
    K, L = np.meshgrid(grid, grid, indexing="ij")
    k, l = np.divmod(np.lexsort((K.ravel(), L.ravel(), np.maximum(K, L).ravel())), grid.size)
    bad = ~(log_lhs[:, k] <= log_rhs[:, l] + ATOL)
    c = bad.any(axis=0).argmin()  # the first candidate that no law fails, if any
    if not bad[:, c].any():
        return Certificate(rho=model.rho, K=float(grid[k[c]]), L=float(grid[l[c]]),
                           N=math.sqrt(model.variance_deviation()), n=model.n)
    law = bad.argmax(axis=0)
    lhs, rhs = log_lhs[law, k], log_rhs[law, l]
    c = (lhs - rhs).argmax()
    raise CertificationError(
        f"no grid point satisfies the moment condition; worst violation at "
        f"K={grid[k[c]]}, L={grid[l[c]]}: log LHS {lhs[c]:.6g} > log RHS {rhs[c]:.6g}",
        witness_law=model.table.laws[law[c]], log_lhs=float(lhs[c]), log_rhs=float(rhs[c]))


def verify_certificate(model: MartingaleModel, cert: Certificate) -> bool:
    """Re-verify a certificate exactly against the model's reachable laws."""
    log_lhs, log_rhs = model.moment_condition(cert.rho, [cert.K], [cert.L])
    return bool((log_lhs <= log_rhs + ATOL).all()
                and model.variance_deviation() <= cert.N ** 2 + ATOL)


# ---------------------------------------------------------------------------
# concrete models


class IIDModel(MartingaleModel):
    """Differences that all follow the one law `law`: a single state."""

    def __init__(self, name: str, n: int, rho: float, law: ConditionalLaw):
        super().__init__(name, n, rho)
        self._law = law

    def initial_state(self):
        return None

    def law_at(self, state):
        return self._law

    def next_state(self, state, eta):
        return None


def _build_heavy_left_law(rho, tail_atoms):
    """Mean-zero unit-variance law: positive atom +a, negatives at -b_j.

    Shape q_j ~ b_j^-(2+rho) makes every negative atom contribute equally to
    E[|v|^{2+rho}], keeping the one-sided moment small; the deepest atom still
    dominates the 6th moment, which breaks the Bernstein condition.
    """
    if tail_atoms < 2:
        raise ModelError("need at least 2 negative tail atoms")
    b = np.array([2.0 * (1e5 / 2.0) ** (j / (tail_atoms - 1))
                  for j in range(tail_atoms)])
    shape = b ** -(2.0 + rho)
    Q = math.fsum(shape)
    m = math.fsum(shape * b)       # unscaled negative mean magnitude
    v = math.fsum(shape * b * b)   # unscaled negative second moment
    # scale s on the shape and positive atom (a, p) solve:
    #   p = 1 - s Q,   p a = s m  (mean zero),   p a^2 + s v = 1
    A, B, C = m * m - v * Q, v + Q, -1.0
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        raise ModelError("heavy-left moment matching infeasible")
    if A == 0.0:
        s = -C / B
    else:
        s = (-B + math.sqrt(disc)) / (2.0 * A)
        if not (0.0 < s < 1.0 / Q):
            s = (-B - math.sqrt(disc)) / (2.0 * A)
    if not (0.0 < s < 1.0 / Q):
        raise ModelError("heavy-left moment matching infeasible: no valid "
                         "probability scale")
    p = 1.0 - s * Q
    a = s * m / p
    atoms = [(a, p)] + [(-float(bj), float(s * qj)) for bj, qj in zip(b, shape)]
    return ConditionalLaw(tuple(atoms))


class RegimeSwitchModel(MartingaleModel):
    """Two-point differences whose variance switches with the last sign.

    The step variance prefers (1+gamma)^2 after a positive increment and
    (1-gamma)^2 after a negative one; whenever the preferred choice would push
    the running variance deficit d = k - sum sigma_i^2 outside
    [-B, B] with B = 2*gamma + gamma^2, the opposite variance is used instead.
    This keeps |<X>_n - 1| <= B/n <= N^2/n with N^2 = (1+g)^2 - (1-g)^2.
    """

    def __init__(self, n: int, gamma: float, rho: float = 1.0):
        super().__init__("regime_switch", n, rho)
        if not (0.0 <= gamma < 0.5):
            raise ModelError("gamma must lie in [0, 1/2)")
        self.gamma = gamma
        self._hi2 = (1.0 + gamma) ** 2
        self._lo2 = (1.0 - gamma) ** 2
        self._bound = 2.0 * gamma + gamma * gamma

    # state: (last_sign, deficit); sign 0 holds exactly before the first step,
    # and the deficit is rounded to 12 decimals so the reachable set is finite
    def initial_state(self):
        return (0, 0.0)

    def _sigma2_at(self, state):
        sign, d = state
        if sign == 0 or self.gamma == 0.0:
            return 1.0
        pref = self._hi2 if sign > 0 else self._lo2
        if abs(d + 1.0 - pref) <= self._bound + ATOL:
            return pref
        return self._lo2 if pref == self._hi2 else self._hi2

    def law_at(self, state):
        sigma = math.sqrt(self._sigma2_at(state))
        return ConditionalLaw(((sigma, 0.5), (-sigma, 0.5)))

    def next_state(self, state, eta):
        d = round(state[1] + 1.0 - self._sigma2_at(state), 12)
        return (1 if eta > 0 else -1, d)


# ---------------------------------------------------------------------------
# factories


def make_rademacher(n: int, rho: float = 1.0) -> IIDModel:
    """i.i.d. +-1 differences; the canonical exactly-standardized instance."""
    return IIDModel("rademacher", n, rho, ConditionalLaw(((1.0, 0.5), (-1.0, 0.5))))


def make_heavy_left(n: int, rho: float = 0.5, tail_atoms: int = 8) -> IIDModel:
    """i.i.d. differences with one positive atom and a heavy negative tail.

    The negative side carries atoms down to -1e5 whose (2+rho)-moment stays
    small while any two-sided exponential moment is astronomically large, so
    the one-sided moment condition holds where two-sided conditions (Bernstein,
    two-sided Sakhanenko) fail.
    """
    _check_horizon(n, rho)  # first: the law is built from rho
    return IIDModel("heavy_left", n, rho, _build_heavy_left_law(rho, tail_atoms))


def make_regime_switch(n: int, gamma: float, rho: float = 1.0) -> RegimeSwitchModel:
    return RegimeSwitchModel(n, gamma, rho=rho)


_FACTORIES = {
    "rademacher": make_rademacher,
    "heavy_left": make_heavy_left,
    "regime_switch": make_regime_switch,
}
