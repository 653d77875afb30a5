"""Walker's alias method for drawing from tabulated finite laws, shared by
the block-sum sampler and the Berbee coupling in `mixing` and the block
sampler of every state-dependent model in `models`.  The tables of all
rows are built at once, by prefix sums over Vose's pairing (Vose 1991, IEEE
TSE 17:972; Hübschle-Schneider & Sanders, ESA 2019).  Also here: the law of
two consecutive blocks from the laws of each, by convolution along a lattice
of block totals (`compose`), which both block samplers use to double their
tables and `mixing` to build the law of a path's last draws; the plan by
which they draw 2^b blocks with one uniform; and the tail of a table's last
draw given a path's value so far (`tail_index`, `tail_lookup`), which both
integrate instead of drawing it."""
from __future__ import annotations

import math

import numpy as np

# most cells per row in a doubled block table of a state-dependent model.  A
# larger table lets one uniform draw more blocks, but it takes longer to
# build and tilt than the draws it saves: 1024 was fastest in a sweep of 256
# to 4096 cells on regime_switch at n = 1600 (see CHANGES.md)
BLOCK_TABLE_CELLS = 1024

# the most that the residuals of two tables' totals from one lattice may add
# to, in lattice steps, for `join_block_laws` to join them: totals rounded to
# 12 decimals are off by about 1e-12, and a chain off a lattice by a step's
# fraction
LATTICE_SLACK = 1e-9


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
    the row block a ends in: end[a] is the end row of block a, and start[b]
    the start row of block b, sorted.  The joins come sorted by a, then b."""
    first = np.searchsorted(start, end, side="left")
    many = np.searchsorted(start, end, side="right") - first
    a = np.repeat(np.arange(end.size), many)
    return a, np.arange(a.size) + np.repeat(first - (np.cumsum(many) - many), many)


def compose(first, second, cap):
    """The law of a block of `first` followed by one of `second`, for a
    chain whose block total and next start state depend only on the block's
    start state.  Each is (law, start, end): law[j, i] = P(total i, end row
    end[j] | start row start[j]) > 0 for some i, with the totals i on one
    lattice, one step apart, and the (start, end) pairs distinct and
    sorted; the rows of `second` are rows the blocks of `first` end in.
    The total of the two is i + i', so the sum over joined blocks is a
    convolution along the totals:
        law2[(s, t), :] = sum_r convolve(first[(s, r)], second[(r, t)]),
    summed over r in increasing order, with Y + Y' - 1 totals.  Returns
    (law2, start2, end2) for the pairs (s, t) that some r joins, sorted; a
    pair no r joins has probability 0.  Returns None once the pairs of one
    start row, all joins into them done, hold more than `cap` nonzero
    cells."""
    (law, start, end), (law_b, start_b, end_b) = first, second
    law2, row, begin, to = {}, None, start.tolist(), end_b.tolist()

    def full(pairs):
        return sum(np.count_nonzero(c) for c in pairs.values()) > cap

    # the joins come sorted by start row, so each row's pairs are done
    # when the next row's first join comes
    for i, j in zip(*(a.tolist() for a in joined(start_b, end))):
        if begin[i] != row:
            if row is not None and full(law2[row]):
                return None
            row = begin[i]
            law2[row] = {}
        pairs = law2[row]
        pairs[to[j]] = np.convolve(law[i], law_b[j]) + pairs.get(to[j], 0)
    if row is not None and full(law2[row]):
        return None
    keys = [(s, t) for s, pairs in law2.items() for t in sorted(pairs)]
    return np.array([law2[s][t] for s, t in keys]), *np.array(keys).T


def join_block_laws(first, second, max_cells):
    """The law of a block of `first` followed by one of `second`
    (`compose`), each (values, joint) with joint[s, i, t] = P(total
    values[i], next start t | start s) and its totals `values` sorted.
    The convolution puts pair (a, b) at total a + b, which holds when both
    tables' totals lie on one lattice, lo + i step: each table's residuals
    from it add to at most LATTICE_SLACK steps, so every pair total lies
    within twice that of values2[a + b].  The Y + Y' - 1 joined totals
    values2 are the pair totals of (0, b) and then of (a, Y' - 1), rounded
    to 12 decimals; on the rounded totals of a doubled table, where the
    rounded pair total depends on a + b only, they are the distinct rounded
    pair totals, bit for bit.  The check reads each total once, not every
    pair.  Returns (values2, joint2), or None when the totals are not on
    one lattice, or when the joined table would have more than `max_cells`
    (total, next start) cells per start state.  Joining a table with itself
    doubles it."""
    (values, joint), (values_b, joint_b) = first, second
    S, Y = joint.shape[:2]
    Yb, E = joint_b.shape[1:]
    if (Y + Yb - 1) * E > max_cells:
        return None
    values2 = np.round(np.concatenate((values[0] + values_b, values[1:] + values_b[-1])), 12)
    step = (values2[-1] - values2[0]) / max(values2.size - 1, 1)
    off = sum(np.abs(v - v[0] - step * np.arange(v.size)).max() for v in (values, values_b))
    if not (off <= LATTICE_SLACK * step and np.all(values2[1:] > values2[:-1])):
        return None
    s, r = np.nonzero(joint.any(axis=1))
    r2, t = np.nonzero(joint_b.any(axis=1))
    # (Y + Y' - 1) E <= max_cells, so no row reaches the cap
    law2, s, t = compose((joint[s, :, r], s, r), (joint_b[r2, :, t], r2, t), max_cells)
    joint2 = np.zeros((S, Y + Yb - 1, E))
    joint2[s, :, t] = law2
    return values2, joint2


def first_over(i, top, over):
    """Per path, the least j in [0, top] with over(j), from a guess i a few
    places off; over(j) is elementwise, grows with j and is taken to hold
    at top.  The guess moves one place a round, back while over(i - 1)
    holds and on while over(i) does not."""
    while True:
        back = (i > 0) & over(i - 1)
        i = i - back
        on = (i < top) & ~over(i)
        i = i + on
        if not (back.any() or on.any()):
            return i


def tail_index(dx, p):
    """(dx, tail, start, lo, h) for `tail_lookup`, from the cells of a law
    per row: dx[row, j] the value a cell adds (inf for a cell with no
    value) and p[row, j] its probability.  Per row, dx holds the values
    sorted, then inf (a last column), and tail the suffix sums of their
    probabilities, from the top.  start[row, b] counts the row's dx with
    (dx - lo + 1) / h <= b up to rounding, for 2 buckets of width h per
    column over [lo - 1, hi + 1], lo and hi the least and the greatest
    finite dx: a path's bucket finds its boundary up to the few dx in one
    bucket."""
    rows, w = dx.shape
    cell = (np.argsort(dx, axis=1) + w * np.arange(rows)[:, None]).ravel()
    dx_of, tail = np.full((rows, w + 1), math.inf), np.zeros((rows, w + 1))
    dx_of[:, :w], tail[:, :w] = dx.ravel()[cell].reshape(rows, w), p.ravel()[cell].reshape(rows, w)
    tail = np.cumsum(tail[:, ::-1], axis=1)[:, ::-1]
    finite = dx[dx < math.inf]
    lo, hi = finite.min(), finite.max()
    # buckets of width h over [lo - 1, hi + 1], 2 per column
    buckets = 2 * (w + 1)
    h = (hi - lo + 2.0) / buckets
    up = np.minimum(np.ceil((dx_of - lo + 1.0) / h), buckets).astype(np.intp)
    up += (buckets + 1) * np.arange(rows)[:, None]
    start = np.cumsum(np.bincount(up.ravel(), minlength=rows * (buckets + 1)).reshape(rows, -1),
                      axis=1)[:, :-1]
    return dx_of, tail, start, lo, h


def tail_lookup(index, past, row, x):
    """P(x + dx > past | row) over the cells of a `tail_index` per path, x
    its value so far: the cells past the boundary, found from the path's
    bucket and then fixed up by evaluating x + dx at its neighbours
    (`first_over`), so a cell counts exactly when that float sum exceeds
    `past`."""
    dx, tail, start, lo, h = index
    width, buckets = dx.shape[1], start.shape[1]
    first, dx = row * width, dx.ravel()
    b = np.clip((past - x - lo + 1.0) / h, 0.0, buckets - 1.0).astype(np.intp)
    # the row's bucket holds about the first cell with x + dx > past;
    # the last column, dx = inf, always is one
    i = first_over(start.ravel()[row * buckets + b], width - 1,
                   lambda i: x + dx[first + i] > past)
    return tail.ravel()[first + i]


def draw_plan(k, levels):
    """Which table each draw of a k-block path uses, given the tables for
    2^0, ..., 2^(levels-1) blocks: k >> (levels-1) draws from the largest,
    then one draw from table b for each set bit b of the remainder, largest
    first.  The plan's block counts add up to k."""
    top = levels - 1
    return [top] * (k >> top) + [b for b in range(top - 1, -1, -1) if k >> b & 1]
