"""Walker's alias method for drawing from tabulated finite laws, shared by
the block-sum sampler and the Berbee coupling in `mixing` and the block
sampler of every state-dependent model in `models`."""
from __future__ import annotations

import numpy as np


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
        while small and large:
            lo, hi = small.pop(), large.pop()
            prob[s, lo], alias[s, lo] = q[lo], hi
            q[hi] = (q[hi] + q[lo]) - 1.0
            (small if q[hi] < 1.0 else large).append(hi)
        # what is left over holds mass 1 up to rounding and keeps itself
    return prob.ravel(), alias.ravel()


def alias_draw(tables, base, width, u):
    """One column per uniform u in [0, 1), drawn through `alias_tables`
    from the row of `width` columns whose cells start at offset `base`."""
    prob, alias = tables
    u = u * width
    col = np.minimum(u.astype(np.intp), width - 1)
    cell = base + col
    return np.where(u - col < prob[cell], col, alias[cell])
