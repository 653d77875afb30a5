"""Walker's alias method for drawing from tabulated finite laws, shared by
the block-sum sampler and the Berbee coupling in `mixing` and the block
sampler of every state-dependent model in `models`.  The tables of all
rows are built at once, by prefix sums over Vose's pairing (Vose 1991, IEEE
TSE 17:972; Hübschle-Schneider & Sanders, ESA 2019).  Also here: the law of
two consecutive blocks from the law of one, by convolution along a lattice
of block totals (`compose`), which both block samplers use to double their
tables, and the plan by which they draw 2^b blocks with one uniform."""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# most cells per row in a doubled block table of a state-dependent model.  A
# larger table lets one uniform draw more blocks, but it takes longer to
# build and tilt than the draws it saves: 1024 was fastest in a sweep of 256
# to 4096 cells on regime_switch at n = 1600 (see CHANGES.md)
BLOCK_TABLE_CELLS = 1024


def alias_tables(p: np.ndarray):
    """Walker's alias tables for each row of p, flattened over (row,
    column).  Column i of row s keeps itself with probability prob[s*W + i]
    and otherwise gives alias[s*W + i]; a uniform column and one comparison
    then draw from the row's law (`alias_draw`).  An all-zero row, which is
    never drawn from, keeps itself in every column.

    The pairing is that of Vose's method with both stacks filled in column
    order.  With q = W p / sum(p), the light cells (q < 1) and the heavy
    ones are each taken from the high end of the row; the current heavy
    cell covers each light cell's deficit 1 - q until its surplus q - 1
    runs out, and then turns light and is covered by the next heavy cell.
    So a light cell goes to the first heavy cell whose surplus, summed with
    those of the heavy cells taken before it, covers the deficits of the
    light cells taken before it: prefix sums give that for every row at
    once.  A light cell keeps its q, as in Vose's method.  A heavy cell that
    turns light keeps 1 plus its residual, summed per heavy cell from the
    deficits it covered, as accurate as Vose's running one; the row's
    prefix sums are too coarse for it.  Cells left over when either kind
    runs out hold mass 1 up to rounding and keep themselves."""
    S, W = p.shape
    total = p.sum(axis=1)
    # position c of a row is column W - 1 - c, the order the stacks pop in
    q = p[:, ::-1] * (W / np.where(total > 0.0, total, 1.0))[:, None]
    q[total == 0.0] = 1.0
    light = q < 1.0
    deficit = np.where(light, 1.0 - q, 0.0)
    owed = np.cumsum(deficit, axis=1)
    held = np.cumsum(np.where(light, 0.0, q - 1.0), axis=1)
    # each row's light cells, then its heavy ones, as flat positions; a
    # stable sort of their running sums merges the two, a light cell first
    # on a tie, and counts the heavy cells before each light one
    row = W * np.arange(S)[:, None]
    stack = np.argsort(~light, axis=1, kind="stable") + row
    nl = light.sum(axis=1, keepdims=True)
    order = np.argsort(np.where(light, owed - deficit, held).ravel()[stack], axis=1, kind="stable")
    short = np.cumsum(order >= nl, axis=1)
    took = (order < nl) & (short < W - nl)
    lo, hi = stack.ravel()[(order + row)[took]], stack.ravel()[(nl + short + row)[took]]
    keep, alias = np.ones(S * W), np.arange(S * W) % W
    q, deficit = q.ravel(), deficit.ravel()
    keep[lo], alias[lo] = q[lo], hi % W
    taken = np.bincount(hi, weights=deficit[lo], minlength=S * W)
    residual = np.cumsum(np.where(light.ravel(), 0.0, (q - 1.0) - taken).reshape(S, W), axis=1)
    # a heavy cell turns light, and takes the next one, when its summed
    # surplus falls short of all the deficits
    turn = (np.arange(W - 1) >= nl) & (held.ravel()[stack[:, :-1]] < owed[:, -1:])
    hi = stack[:, :-1][turn]
    keep[hi], alias[hi] = 1.0 + residual.ravel()[hi], stack[:, 1:][turn] % W
    return keep.reshape(S, W)[:, ::-1].ravel(), (W - 1 - alias).reshape(S, W)[:, ::-1].ravel()


def alias_draw(tables, base, width, u):
    """One column per uniform u in [0, 1), drawn through `alias_tables`
    from the row of `width` columns whose cells start at offset `base`."""
    prob, alias = tables
    u = u * width
    col = np.minimum(u.astype(np.intp), width - 1)
    cell = base + col
    return np.where(u - col < prob[cell], col, alias[cell])


def joined(start, end):
    """(a, b) for every pair of blocks a, b that join, block b starting in
    the row block a ends in; blocks are (start row, end row) pairs sorted by
    start, and the joins come sorted by a, then b."""
    first = np.searchsorted(start, end, side="left")
    many = np.searchsorted(start, end, side="right") - first
    a = np.repeat(np.arange(start.size), many)
    return a, np.arange(a.size) + np.repeat(first - (np.cumsum(many) - many), many)


def compose(law, start, end, cap):
    """The law of two consecutive blocks of a chain whose block total and
    next start state depend only on the block's start state, from the law
    of one.  law[j, i] = P(total i, end row end[j] | start row start[j]) >
    0 for some i, with the totals i on a lattice, one step apart, and the
    (start, end) pairs distinct and sorted.  The pair total is i + i', so
    the sum over joined blocks is a convolution along the totals:
        law2[(s, t), :] = sum_r convolve(law[(s, r)], law[(r, t)]),
    summed over r in increasing order, with 2Y - 1 totals.  Returns (law2,
    start2, end2) for the pairs (s, t) that some r joins, sorted; a pair no
    r joins has probability 0.  Returns None as soon as the pairs of one
    start row hold more than `cap` nonzero cells; a row's count only grows,
    as the laws are nonnegative."""
    law2, begin, to = {}, start.tolist(), end.tolist()
    cells = dict.fromkeys(begin, 0)  # nonzero cells per start row
    for i, j in zip(*(a.tolist() for a in joined(start, end))):
        old = law2.get((begin[i], to[j]), 0)
        law2[begin[i], to[j]] = c = np.convolve(law[i], law[j]) + old
        cells[begin[i]] += np.count_nonzero(c) - np.count_nonzero(old)
        if cells[begin[i]] > cap:
            return None
    pairs = sorted(law2)
    return np.array([law2[k] for k in pairs]), *np.array(pairs).T


def double_block_law(values, joint, max_cells):
    """The law of two consecutive blocks (`compose`) with block totals
    `values`, sorted and rounded to 12 decimals, with the pair totals
    rounded to 12 decimals.  The totals lie on one lattice when the rounded
    pair total round(values[a] + values[b], 12) depends on a + b only and
    grows with it, as it does for totals equally spaced up to that
    rounding.  Then the doubled table has 2Y - 1 totals, the j-th that of
    every pair with a + b = j (so they are the distinct rounded pair totals,
    bit for bit).  Returns (values2, joint2), or None when the totals are
    not on one lattice, or when the doubled table would have more than
    `max_cells` (total, next start) cells per start state."""
    S, Y = joint.shape[:2]
    if (2 * Y - 1) * S > max_cells:
        return None
    pairs = np.round(np.add.outer(values, values), 12)
    values2 = np.concatenate((pairs[0], pairs[1:, -1]))
    # window a of values2 holds values2[a + b] at b
    if not (np.array_equal(pairs, sliding_window_view(values2, Y))
            and np.all(values2[1:] > values2[:-1])):
        return None
    s, t = np.nonzero(joint.any(axis=1))
    # S (2Y - 1) <= max_cells, so no row reaches the cap
    law2, s, t = compose(joint[s, :, t], s, t, max_cells)
    joint2 = np.zeros((S, 2 * Y - 1, S))
    joint2[s, :, t] = law2
    return values2, joint2


def draw_plan(k, levels):
    """Which table each draw of a k-block path uses, given the tables for
    2^0, ..., 2^(levels-1) blocks: k >> (levels-1) draws from the largest,
    then one draw from table b for each set bit b of the remainder, largest
    first.  The plan's block counts add up to k."""
    top = levels - 1
    return [top] * (k >> top) + [b for b in range(top - 1, -1, -1) if k >> b & 1]
