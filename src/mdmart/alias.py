"""Walker's alias method for drawing from tabulated finite laws, shared by
the block-sum sampler and the Berbee coupling in `mixing` and the block
sampler of every state-dependent model in `models`; the doubling of a
block-law table; and the plan by which both block samplers draw 2^b blocks
with one uniform."""
from __future__ import annotations

import numpy as np

# most cells per start state in a doubled block table, the block-sum
# sampler's (block total, next start) cells and a model's (end row, atom
# counts) groups alike.  A larger table lets one uniform draw more blocks,
# but its alias tables take longer to build than the draws they save; 256 was
# fastest in a sweep of 128 to 1024 on the benchmark's chains (see
# CHANGES.md)
BLOCK_TABLE_CELLS = 256


def alias_tables(p: np.ndarray):
    """Walker's alias tables for each row of p, built by Vose's method
    (Vose 1991, IEEE TSE 17:972), flattened over (row, column).  Column i
    of row s keeps itself with probability prob[s*W + i] and otherwise
    gives alias[s*W + i]; a uniform column and one comparison then draw
    from the row's law (`alias_draw`).  An all-zero row, which is never
    drawn from, keeps itself in every column."""
    S, W = p.shape
    prob = np.ones((S, W))
    alias = np.tile(np.arange(W), (S, 1))
    for s in range(S):
        total = p[s].sum()
        if total == 0.0:
            continue
        q = (p[s] * (W / total)).tolist()
        small = [i for i in range(W) if q[i] < 1.0]
        large = [i for i in range(W) if q[i] >= 1.0]
        keep, other = [1.0] * W, list(range(W))
        while small and large:
            lo, hi = small.pop(), large.pop()
            keep[lo], other[lo] = q[lo], hi
            q[hi] = (q[hi] + q[lo]) - 1.0
            (small if q[hi] < 1.0 else large).append(hi)
        # what is left over holds mass 1 up to rounding and keeps itself
        prob[s], alias[s] = keep, other
    return prob.ravel(), alias.ravel()


def alias_draw(tables, base, width, u):
    """One column per uniform u in [0, 1), drawn through `alias_tables`
    from the row of `width` columns whose cells start at offset `base`."""
    prob, alias = tables
    u = u * width
    col = np.minimum(u.astype(np.intp), width - 1)
    cell = base + col
    return np.where(u - col < prob[cell], col, alias[cell])


def double_block_law(values, joint, max_cells):
    """The law of two consecutive blocks of a chain whose block total and
    next start state depend only on the block's start state.

    joint[s, i, t] = P(total values[i], next start t | start s); values are
    sorted and rounded to 12 decimals.  The doubled law is the table
    composed with itself,
        joint2[s, v, t] = sum_r sum_{v1 + v2 = v} joint[s, v1, r] joint[r, v2, t],
    with the pair totals rounded to 12 decimals, so that sums on a lattice
    fall on one value.  Returns (values2, joint2), or None when the doubled
    table would have more than `max_cells` (total, next start) cells per
    start state."""
    S, Y = joint.shape[:2]
    values2, pair_to = np.unique(np.round(np.add.outer(values, values), 12),
                                 return_inverse=True)
    V = values2.size
    if V * S > max_cells:
        return None
    pair = np.einsum("sar,rbt->sabt", joint, joint)
    # outcome (s, a, b, t) of the pair adds to cell (s, pair_to[a, b], t)
    cell = (np.arange(S)[:, None, None] * V + pair_to.reshape(1, Y * Y, 1)) * S + np.arange(S)
    joint2 = np.bincount(cell.ravel(), weights=pair.ravel(), minlength=S * V * S)
    return values2, joint2.reshape(S, V, S)


def draw_plan(k, levels):
    """Which table each draw of a k-block path uses, given the tables for
    2^0, ..., 2^(levels-1) blocks: k >> (levels-1) draws from the largest,
    then one draw from table b for each set bit b of the remainder, largest
    first.  The plan's block counts add up to k."""
    top = levels - 1
    return [top] * (k >> top) + [b for b in range(top - 1, -1, -1) if k >> b & 1]
