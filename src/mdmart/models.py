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
from typing import Iterator

import numpy as np
from scipy.special import gammaln, xlogy

from .alias import BLOCK_TABLE_CELLS, alias_draw, alias_tables, draw_plan

ATOL = 1e-12

# a model whose breadth-first search visits more states than this is refused
MAX_STATES = 100_000

# geometric grid on which certificates are searched
DEFAULT_GRID = tuple(2.0 ** j for j in range(-6, 11))

# the block sampler's forward pass visits at most this many (start state,
# atom sequence) cells
BLOCK_CELLS = 1 << 15

# most outcome pairs one doubling of the block tables forms: a memory bound,
# as grouping them takes about 100 bytes a pair, 55 MB at this cap
DOUBLING_PAIRS = 1 << 19

# most cells `terminal_law` tabulates (a two-atom i.i.d. law has n + 1): a
# memory bound, as an estimate on the cells holds about 80 bytes a cell,
# 20 MB at this cap
LATTICE_CELLS = 1 << 18


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
    """Finite-support law of one martingale difference: ((value, prob), ...)."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.atoms) < 2:
            raise ModelError("need at least 2 atoms")
        values = [v for v, _ in self.atoms]
        probs = [p for _, p in self.atoms]
        if len(set(values)) != len(values):
            raise ModelError("atom values must be distinct")
        if any(not (0.0 < p <= 1.0) for p in probs):
            raise ModelError("atom probs must lie in (0, 1]")
        if abs(math.fsum(probs) - 1.0) > ATOL:
            raise ModelError("atom probs must sum to 1")
        if abs(math.fsum(p * v for v, p in self.atoms)) > ATOL:
            raise ModelError("law must have mean zero (martingale difference)")

    @property
    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.atoms])

    def second_moment(self) -> float:
        return math.fsum(p * v * v for v, p in self.atoms)

    def scaled(self, factor: float) -> "ConditionalLaw":
        return ConditionalLaw(tuple((v * factor, p) for v, p in self.atoms))

    def log_sakhanenko_moment(self, rho: float, K: float, two_sided: bool = False) -> float:
        """log E[|v|^{2+rho} e^{K v+}] (or e^{K|v|} for the two-sided variant).

        Computed in log space so deep negative atoms with enormous
        exponential moments do not overflow.
        """
        terms = []
        for v, p in self.atoms:
            if v == 0.0:
                continue
            exponent = K * (abs(v) if two_sided else max(v, 0.0))
            terms.append(math.log(p) + (2.0 + rho) * math.log(abs(v)) + exponent)
        if not terms:
            return -math.inf
        m = max(terms)
        return m + math.log(math.fsum(math.exp(t - m) for t in terms))


def check_sakhanenko(law: ConditionalLaw, rho: float, K: float, L: float,
                     two_sided: bool = False):
    """Check E[|v|^{2+rho} e^{K v+}] <= L^rho E[v^2] on one law.

    Returns (ok, log_lhs, log_rhs); comparison done in log space.
    """
    log_lhs = law.log_sakhanenko_moment(rho, K, two_sided=two_sided)
    log_rhs = rho * math.log(L) + math.log(law.second_moment())
    return log_lhs <= log_rhs + ATOL, log_lhs, log_rhs


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
    """Vectorized terminal values of many simulated paths."""

    x: np.ndarray           # X_n per path
    log_weight: np.ndarray  # -lam*X_n + Psi_n per path (zeros when lam == 0)


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
    of laws with fewer atoms are padded with their last entry)."""

    states: tuple
    laws: tuple[ConditionalLaw, ...]
    law_of: np.ndarray
    T: np.ndarray


@dataclass(frozen=True)
class BlockTable:
    """The law of one block of `steps` steps under P_lam from each
    block-start state, in `width` cells per state, flattened over (row,
    cell).  Row 0 is state 0; the others are the states a block can end
    in, in the order blocks first reach them.  Padding cells have
    probability 0."""

    steps: int
    width: int
    prob: np.ndarray   # outcome probability
    dx: np.ndarray     # sum of the block's scaled values
    dpsi: np.ndarray   # sum of psi_s(lam) over the block's states
    end: np.ndarray    # row of the end state
    alias: tuple       # alias_tables of prob, row by row


@dataclass(frozen=True)
class _BlockOutcomes:
    """The outcomes of `steps` steps from each block-start row, grouped by
    (row, end row, count of each (law, atom) drawn): the atom sequences of a
    group share their probability, value sum and log mgf sum under every
    tilt.  Group g holds `mult[g]` sequences and sits in cell `cell[g]` =
    row * width + column; `dx` and `end` are laid out by cell, and `values`
    are the scaled atom values per (law, atom).  Doubling adds counts, so
    they are int32, past int8, and multiplies multiplicities, so they are
    float64, past int64."""

    steps: int
    width: int
    cell: np.ndarray
    count: np.ndarray
    mult: np.ndarray
    dx: np.ndarray
    end: np.ndarray
    values: np.ndarray

    @classmethod
    def group(cls, steps, rows, row, end, count, mult, values):
        """Group outcomes i, which start in row `row[i]`, end in row
        `end[i]`, draw (law, atom) j `count[i, j]` times and stand for
        `mult[i]` atom sequences each, by (row, end row, count); a group's
        multiplicity is the sum of its outcomes'."""
        # sorted lexicographically by (row, end, count): the key columns are
        # folded into as few int64 sort keys as hold them, each a
        # mixed-radix number, which keeps that order
        folded, size = [], 0
        for col in (row, end, *count.T):
            span = int(col.max()) + 1
            if folded and size * span < 1 << 62:
                folded[-1] = folded[-1] * span + col
                size *= span
            else:
                folded.append(col.astype(np.int64, copy=False))
                size = span
        order = np.lexsort(folded[::-1])
        new = np.zeros(row.size, dtype=bool)
        new[0] = True
        for f in folded:
            f = f[order]
            new[1:] |= f[1:] != f[:-1]
        mult = np.bincount(np.cumsum(new) - 1, weights=mult[order])
        first = order[new]
        row, count = row[first], count[first].astype(np.int32)
        col = np.arange(row.size) - np.searchsorted(row, row)
        width = int(col.max()) + 1
        cell = row * width + col
        dx = np.zeros(rows * width)
        dx[cell] = (count * values).sum(axis=1)
        nxt = np.zeros(dx.size, dtype=np.intp)
        nxt[cell] = end[first]
        return cls(steps, width, cell, count, mult, dx, nxt, values)

    def cells_bound(self):
        """A lower bound on the cells of each row of the doubled outcomes,
        from the group counts alone.  With A the count vectors from row s
        into row r and B those from r into row t, the cells from s into t
        hold A + B, and |A + B| >= |A| + |B| - 1 for finite sets of integer
        vectors (list both in lexicographic order).  Summed over t, row s
        has at least size(r) + ends(r) (|A| - 1) cells for each r it ends
        in, size(r) being the groups of row r and ends(r) the rows they end
        in."""
        rows = self.dx.size // self.width
        row, end = self.cell // self.width, self.end[self.cell]
        into, per = np.unique(row * rows + end, return_counts=True)
        starts, middle = np.divmod(into, rows)
        size = np.bincount(row, minlength=rows)
        ends = np.bincount(starts, minlength=rows)
        bound = np.zeros(rows, dtype=np.intp)
        np.maximum.at(bound, starts, size[middle] + ends[middle] * (per - 1))
        return bound

    def doubled(self, max_cells):
        """The outcomes of 2 * steps steps: each outcome from row s that ends
        in row r followed by each outcome from row r, regrouped, a pair
        standing for the product of its parts' multiplicities.  None when a
        row would have more than `max_cells` cells, which `cells_bound`
        mostly shows before any pair is formed, or when there would be more
        than DOUBLING_PAIRS pairs."""
        if self.cells_bound().max() > max_cells:
            return None
        rows = self.dx.size // self.width
        row, end = self.cell // self.width, self.end[self.cell]
        # pair each group with every group of the row it ends in; a row's
        # groups are contiguous, from first[row]
        size = np.bincount(row, minlength=rows)
        take = size[end]
        if take.sum() > DOUBLING_PAIRS:
            return None
        g = np.repeat(np.arange(row.size), take)
        first = np.cumsum(size) - size
        h = np.arange(g.size) + np.repeat(first[end] - (np.cumsum(take) - take), take)
        count = self.count[g]
        count += self.count[h]
        out = _BlockOutcomes.group(2 * self.steps, rows, row[g], end[h], count,
                                   self.mult[g] * self.mult[h], self.values)
        return out if out.width <= max_cells else None

    def tilted(self, q, psi) -> BlockTable:
        """The table under the tilt whose (law, atom) probabilities are q
        and whose per-law log mgfs, repeated per atom, are psi."""
        prob = self.mult.copy()
        for j in range(q.size):
            prob *= q[j] ** self.count[:, j]
        p = np.zeros(self.dx.size)
        p[self.cell] = prob
        dpsi = np.zeros(self.dx.size)
        dpsi[self.cell] = (self.count * psi).sum(axis=1)
        return BlockTable(self.steps, self.width, p, self.dx, dpsi, self.end,
                          alias_tables(p.reshape(-1, self.width)))


class MartingaleModel:
    """Base class: a pure state machine over history summaries.

    Subclasses define `initial_state`, the unscaled conditional law at each
    state and the state transition, over finitely many reachable states.
    Everything else -- reachable laws, the variance deviation, whether the
    differences are i.i.d., the sampler and the path walks -- is derived from
    the compiled `table`.  The scaled increment is eta / sqrt(n).
    """

    def __init__(self, name: str, n: int, rho: float):
        if n < 1:
            raise ModelError("horizon n must be >= 1")
        if not (0.0 < rho <= 1.0):
            raise ModelError("rho must lie in (0, 1]")
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
        return StateTable(states=tuple(states), laws=tuple(laws),
                          law_of=np.array(law_of, dtype=np.intp), T=T)

    def reachable_laws(self) -> Iterator[ConditionalLaw]:
        return iter(self.table.laws)

    def variance_deviation(self) -> float:
        """Exact worst case of |sum_i E[eta_i^2 | F_{i-1}] - n| over paths:
        a forward pass carrying, per state, the least and greatest sum of
        (E[eta^2 | state] - 1) over the paths that reach it."""
        t = self.table
        S, width = t.T.shape
        if S == 1:
            # the same float sum the forward pass makes, one add per step;
            # n * d would round differently
            d = t.laws[0].second_moment() - 1.0
            total = 0.0
            for _ in range(self.n):
                total += d
            return abs(total)
        step = np.array([law.second_moment() - 1.0 for law in t.laws])[t.law_of]
        # one array of minima, so each step is one ufunc.at: the least sum
        # per state in [0, S), minus the greatest in [S, 2S), inf if unreached;
        # least <= greatest, so the largest |sum| is -v.min()
        half = np.repeat([0, S], S * width)
        src = np.tile(np.repeat(np.arange(S), width), 2) + half
        to = np.tile(t.T.ravel(), 2) + half
        inc = np.concatenate([step, -step])
        v = np.full(2 * S, math.inf)
        v[0] = v[S] = 0.0
        for _ in range(self.n):
            nxt = np.full(2 * S, math.inf)
            np.minimum.at(nxt, to, (v + inc)[src])
            v = nxt
        return float(abs(v.min()))  # v.min() <= 0; abs keeps 0.0 unsigned

    @property
    def iid(self) -> bool:
        return len(self.table.states) == 1

    @cached_property
    def scaled_laws(self) -> tuple[ConditionalLaw, ...]:
        """`table.laws` scaled by 1/sqrt(n); built once, as the sampler tilts
        them again for every chunk it draws."""
        scale = 1.0 / math.sqrt(self.n)
        return tuple(law.scaled(scale) for law in self.table.laws)

    def tilted_laws(self, lam: float) -> list:
        """`scaled_laws` tilted by lam."""
        from .tilt import tilt_law  # local import, avoids a cycle
        return [tilt_law(law, lam) for law in self.scaled_laws]

    # -- simulation -------------------------------------------------------

    def simulate_terminal(self, size: int, rng: np.random.Generator,
                          lam: float = 0.0) -> TerminalBatch:
        """X_n and log weights of `size` paths under P_lam.

        With one state, X_n depends only on how often each atom is drawn, and
        those counts are drawn as conditional binomials (Devroye 1986,
        ch. XI): one draw per atom per path.  For a two-atom law that is one
        binomial draw.  Otherwise the path is cut into blocks of B steps
        (`block_steps`), and one uniform draws 2^b blocks at once: their sum
        of values, their sum of log mgfs and their end state come together
        from the alias tables of the law of 2^b blocks at the path's
        block-start state (`block_tables`).  A path of k = n // B blocks
        draws as `draw_plan` says: k // j times from the table of the most
        blocks j, and once from the table of 2^b blocks for each set bit b
        of k mod j.  The n mod B steps left over come last, from the
        leftover table the same way.  B = 1 would draw step by step."""
        t = self.table
        if len(t.states) == 1:
            tl = self.tilted_laws(lam)[0]
            probs = [p for _, p in tl.atoms]
            values = [v for v, _ in t.laws[0].atoms]
            # suffix sums, not a running difference, so the conditional
            # probabilities stay in [0, 1] when trailing tilted probabilities
            # underflow to 0; left[j] >= probs[j], and an atom after the last
            # positive one gets probability 0
            left = list(accumulate(reversed(probs)))[::-1]
            count = rng.binomial(self.n, probs[0], size=size)
            rest = self.n - count
            x = count * values[0]
            for p, q, v in zip(probs[1:-1], left[1:-1], values[1:-1]):
                count = rng.binomial(rest, p / q if q > 0.0 else 0.0)
                rest -= count
                x += count * v
            x += rest * values[-1]
            x *= 1.0 / math.sqrt(self.n)
            return TerminalBatch(x=x, log_weight=-lam * x + self.n * tl.step_log_mgf)
        ladder, rem = self.block_tables(lam)
        draws = [ladder[b] for b in self._blocks[1]]
        if rem is not None:
            draws.append(rem)
        x = np.zeros(size)
        psi = np.zeros(size)
        row = np.zeros(size, dtype=np.intp)  # block-start row 0 is state 0
        for tab in draws:
            off = row * tab.width
            cell = off + alias_draw(tab.alias, off, tab.width, rng.random(size))
            x += tab.dx[cell]
            psi += tab.dpsi[cell]
            row = tab.end[cell]
        return TerminalBatch(x=x, log_weight=-lam * x + psi)

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
        if len(t.states) > 1 or len(t.laws[0].atoms) != 2 or n >= LATTICE_CELLS:
            return None
        tl = self.tilted_laws(lam)[0]
        (_, p0), (_, p1) = tl.atoms
        (v0, _), (v1, _) = t.laws[0].atoms
        k = np.arange(n + 1)
        # simulate_terminal's one-state arithmetic, with count = k
        x = k * v0
        x += (n - k) * v1
        x *= 1.0 / math.sqrt(n)
        log_fact = gammaln(k + 1.0)  # log k!
        log_prob = (log_fact[-1] - log_fact - log_fact[::-1]
                    + xlogy(k, p0) + xlogy(n - k, p1))
        return TerminalLaw(log_prob=log_prob, x=x,
                           log_weight=-lam * x + n * tl.step_log_mgf)

    @cached_property
    def _blocks(self):
        """The tilt-free part of the block tables (ladder, plan, leftover).
        ladder[b] holds the grouped outcomes of 2^b blocks of B steps, from
        each block-start state reachable from state 0: one forward pass over
        every atom sequence from those states gives the first, and each next
        one is its predecessor doubled, while 2^b blocks fit in n and a row
        has at most BLOCK_TABLE_CELLS cells.  plan is the level each draw of
        a path uses (`draw_plan`), and leftover the outcomes of the n mod B
        steps left over, from the same pass (None when B divides n)."""
        t = self.table
        S, width = t.T.shape
        steps = block_steps(S, width)
        leftover = self.n % steps
        a = np.arange(width)
        atoms = np.array([len(law.atoms) for law in t.laws])
        real_atom = a < atoms[t.law_of][:, None]
        # the block-start states: from state 0 and from every block end
        rows, frontier = [0], [0]
        while frontier:
            ends = frontier
            for _ in range(steps):
                ends = sorted(set(t.T[ends][real_atom[ends]].tolist()))
            frontier = [e for e in ends if e not in rows]
            rows += frontier
        row_of = np.zeros(S, dtype=np.intp)
        row_of[rows] = np.arange(len(rows))
        # one column per (law, atom); each cell counts how often it drew each.
        # int8 holds the counts of one pass (<= B <= 14); grouping widens them
        one_hot = np.eye(len(t.laws) * width, dtype=np.int8)
        end = np.array(rows)[:, None]
        real = np.ones(end.shape, dtype=bool)  # no padded atom drawn
        count = np.zeros((len(rows), 1, one_hot.shape[0]), dtype=np.int8)
        passes = {}
        for step in range(1, steps + 1):
            law = t.law_of[end][..., None]
            real = (real[..., None] & real_atom[end]).reshape(len(rows), -1)
            count = (count[:, :, None] + one_hot[law * width + a]).reshape(
                *real.shape, -1)
            end = t.T[end].reshape(real.shape)
            if step in (leftover, steps):
                passes[step] = (end, real, count)
        values = np.zeros(one_hot.shape[0])
        for i, law in enumerate(self.scaled_laws):
            values[i * width:i * width + len(law.atoms)] = law.values

        def grouped(step, row_of):
            end, real, count = passes[step]
            row = np.nonzero(real)[0]
            return _BlockOutcomes.group(step, len(rows), row, row_of[end[real]],
                                        count[real], np.ones(row.size), values)

        ladder = [grouped(steps, row_of)]
        k = self.n // steps
        while len(ladder) < k.bit_length():
            doubled = ladder[-1].doubled(BLOCK_TABLE_CELLS)
            if doubled is None:
                break
            ladder.append(doubled)
        # nothing is drawn after the leftover steps, so their end states are
        # not needed: all map to row 0
        rem = grouped(leftover, np.zeros_like(row_of)) if leftover else None
        return ladder, draw_plan(k, len(ladder)), rem

    def block_tables(self, lam: float):
        """(ladder, leftover) `BlockTable`s under P_lam: ladder[b] draws 2^b
        blocks of B steps, and is None when no draw of a path uses it;
        leftover draws the n mod B steps left over (None when B divides n).
        Built once per lam and kept, since the estimators draw one chunk at
        a time."""
        if lam not in self._block_cache:
            width = self.table.T.shape[1]
            q = np.zeros(len(self.table.laws) * width)
            psi = np.zeros_like(q)
            for i, tl in enumerate(self.tilted_laws(lam)):
                q[i * width:i * width + len(tl.atoms)] = tl.probs
                psi[i * width:(i + 1) * width] = tl.step_log_mgf
            ladder, plan, rem = self._blocks
            self._block_cache[lam] = (
                [g.tilted(q, psi) if b in plan else None for b, g in enumerate(ladder)],
                None if rem is None else rem.tilted(q, psi))
        return self._block_cache[lam]


def certify(model: MartingaleModel, grid=DEFAULT_GRID) -> Certificate:
    """Search the grid for the smallest (K, L) satisfying the one-sided
    moment condition on every reachable law; compute the exact variance
    constant N.

    'Smallest' means lexicographically smallest (max(K, L), L, K), since the
    theorem range constant is max(K, L)/sqrt(n).
    """
    laws = list(model.reachable_laws())
    if not laws:
        raise CertificationError("model has no reachable laws")
    candidates = sorted(
        ((max(K, L), L, K) for K in grid for L in grid))
    # the one-sided moment does not depend on L: each law's is computed once
    # per K, and its second moment once
    log_moment = {}
    log_m2 = [math.log(law.second_moment()) for law in laws]
    worst = None
    for _, L, K in candidates:
        for i, law in enumerate(laws):
            if (i, K) not in log_moment:
                log_moment[i, K] = law.log_sakhanenko_moment(model.rho, K)
            log_lhs = log_moment[i, K]
            log_rhs = model.rho * math.log(L) + log_m2[i]
            if not log_lhs <= log_rhs + ATOL:
                if worst is None or (log_lhs - log_rhs) > (worst[1] - worst[2]):
                    worst = (law, log_lhs, log_rhs, K, L)
                break
        else:
            n2 = model.variance_deviation()
            return Certificate(rho=model.rho, K=K, L=L, N=math.sqrt(n2), n=model.n)
    law, log_lhs, log_rhs, K, L = worst
    raise CertificationError(
        f"no grid point satisfies the moment condition; worst violation at "
        f"K={K}, L={L}: log LHS {log_lhs:.6g} > log RHS {log_rhs:.6g}",
        witness_law=law, log_lhs=log_lhs, log_rhs=log_rhs)


def verify_certificate(model: MartingaleModel, cert: Certificate) -> bool:
    """Re-verify a certificate exactly against the model's reachable laws."""
    for law in model.reachable_laws():
        ok, _, _ = check_sakhanenko(law, cert.rho, cert.K, cert.L)
        if not ok:
            return False
    return model.variance_deviation() <= cert.N ** 2 + ATOL


# ---------------------------------------------------------------------------
# concrete models


class IIDModel(MartingaleModel):
    """Differences that all follow the one law `_law`: a single state."""

    def initial_state(self):
        return None

    def law_at(self, state):
        return self._law

    def next_state(self, state, eta):
        return None


class RademacherModel(IIDModel):
    """i.i.d. +-1 differences; the canonical exactly-standardized instance."""

    def __init__(self, n: int, rho: float = 1.0):
        super().__init__("rademacher", n, rho)
        self._law = ConditionalLaw(((1.0, 0.5), (-1.0, 0.5)))


class HeavyLeftModel(IIDModel):
    """i.i.d. differences with one positive atom and a heavy negative tail.

    The negative side carries atoms down to -1e5 whose (2+rho)-moment stays
    small while any two-sided exponential moment is astronomically large, so
    the one-sided moment condition holds where two-sided conditions (Bernstein,
    two-sided Sakhanenko) fail.
    """

    def __init__(self, n: int, rho: float, tail_atoms: int):
        super().__init__("heavy_left", n, rho)
        if tail_atoms < 2:
            raise ModelError("need at least 2 negative tail atoms")
        self._law = _build_heavy_left_law(rho, tail_atoms)


def _build_heavy_left_law(rho, tail_atoms):
    """Mean-zero unit-variance law: positive atom +a, negatives at -b_j.

    Shape q_j ~ b_j^-(2+rho) makes every negative atom contribute equally to
    E[|v|^{2+rho}], keeping the one-sided moment small; the deepest atom still
    dominates the 6th moment, which breaks the Bernstein condition.
    """
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


def make_rademacher(n: int, rho: float = 1.0) -> RademacherModel:
    return RademacherModel(n, rho=rho)


def make_heavy_left(n: int, rho: float = 0.5, tail_atoms: int = 8) -> HeavyLeftModel:
    return HeavyLeftModel(n, rho, tail_atoms)


def make_regime_switch(n: int, gamma: float, rho: float = 1.0) -> RegimeSwitchModel:
    return RegimeSwitchModel(n, gamma, rho=rho)


_FACTORIES = {
    "rademacher": make_rademacher,
    "heavy_left": make_heavy_left,
    "regime_switch": make_regime_switch,
}
