"""Walker's alias method for drawing from tabulated finite laws, shared by
the block-sum sampler and the Berbee coupling in `mixing` and the block
sampler of every state-dependent model in `models`.  The tables of all
rows are built at once, by prefix sums over Vose's pairing (Vose 1991, IEEE
TSE 17:972; Hübschle-Schneider & Sanders, ESA 2019).  Also here: the
distinct cells of a forward pass over one block (`distinct_cells`), by
which both passes merge the cells that share their fields, each total in
whole units of a lattice; the law of two consecutive blocks from the law
of one (`doubled`), by convolution along those units (`compose`), the one
routine by which both block samplers double their tables; the plan by
which they draw 2^b blocks with one uniform; the law of the total of a
path's last draws, composed in frequency space (`last_draws_law`), the one
engine behind both samplers' completions, at one cap (`COMPLETION_CELLS`);
and the tail of those draws given a path's value so far (`tail_index`,
`tail_lookup`), which both integrate instead of drawing them."""
from __future__ import annotations

import math

import numpy as np

# most cells per row in a doubled block table, of a state-dependent model or
# of a chain's block sums, and so most alias columns per row.  A larger
# table lets one uniform draw more blocks, but it takes longer to build and
# tilt than the draws it saves: 1024 was fastest in a sweep of 256 to 4096
# cells on regime_switch at n = 1600, and of 512, 1024 and 2048 on the
# mixing benchmark's chains (see CHANGES.md)
BLOCK_TABLE_CELLS = 1024

# most lattice steps per start row in the law of a path's last draws, which
# both samplers integrate instead of drawing (`last_draws_law`).  A wider
# law integrates more draws and leaves less variance, but it takes longer
# to transform: 4096 was the best of 512 to 4096 steps on regime_switch at
# n = 400, 1600 and 6400, and at it the mixing defaults integrate 11 of
# their 13 draws (see CHANGES.md)
COMPLETION_CELLS = 4096

# no array that `last_draws_law` allocates or keeps reaches this many bytes.
# glibc serves a block this large by mmap, and freeing one raises its mmap
# threshold to that block's size, which changes how every later allocation
# below it is served: the benchmark's 512 KB reference kernel runs faster or
# slower for it (ROADMAP item 8)
ARRAY_BYTES = 1 << 19


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


def compose(first, second, joins, cap):
    """The law of a block of `first` followed by one of `second`, for a
    chain whose block total and next start state depend only on the block's
    start state.  Each is (law, start, end): law[j, i] = P(total i, end row
    end[j] | start row start[j]) > 0 for some i, with the totals i on one
    lattice, one step apart, and the (start, end) pairs distinct and
    sorted; the rows of `second` are rows the blocks of `first` end in, and
    `joins` are the pairs of blocks that join, joined(second's start,
    first's end).  The total of the two is i + i', so the sum over joined
    blocks is a convolution along the totals:
        law2[(s, t), :] = sum_r convolve(first[(s, r)], second[(r, t)]),
    summed over r in increasing order, with Y + Y' - 1 totals.  Returns
    (law2, start2, end2) for the pairs (s, t) that some r joins, sorted; a
    pair no r joins has probability 0.  Returns None once the pairs of one
    start row, all joins into them done, hold more than `cap` nonzero
    cells."""
    (law, start, _), (law_b, _, end_b) = first, second
    law2, row, begin, to = {}, None, start.tolist(), end_b.tolist()

    def full(pairs):
        return sum(np.count_nonzero(c) for c in pairs.values()) > cap

    # the joins come sorted by start row, so each row's pairs are done
    # when the next row's first join comes
    for i, j in zip(*(a.tolist() for a in joins)):
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


def distinct_cells(fields):
    """(first, inverse) of the distinct columns of the integer array
    `fields`, one row a field of the cells and one column a cell, sorted
    by their fields in turn, as np.unique(fields.T, axis=0) gives them:
    first[j] is the first cell that is distinct cell j, and inverse[i] the
    distinct cell of cell i.  The fields fold into one int64 key, in the
    same order, when it holds them."""
    key = fields - fields.min(axis=1, keepdims=True)
    span = (key.max(axis=1) + 1).tolist()
    key = np.ravel_multi_index(key, span) if math.prod(span) < 1 << 63 else key.T
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True,
                                  axis=None if key.ndim == 1 else 0)
    return first, inverse


def doubled(law, start, end, counts):
    """The law of two blocks from that of one: law[j, i] = P(total lo + i,
    end row end[j] | start row start[j]) with the totals in lattice units,
    one (start, end) pair j per row of law, sorted, and counts[j] the steps
    per law of every block of pair j (no columns for a chain's blocks).
    Returns (law, start, end, counts) of two blocks (`compose`), or None
    when a row of the doubled law would have more than BLOCK_TABLE_CELLS
    cells, or when the steps per law of two blocks are not a function of
    their start and end rows.  With A the totals of the blocks from s into
    r and B those from r into t, the pairs from s into t have at least |A +
    B| >= |A| + |B| - 1 totals for each r, which refuses most doublings
    before any convolution; `compose` refuses the rest as soon as one start
    row passes the cap."""
    a, b = joined(start, end)
    rows = end.max() + 1
    into, first, pair = np.unique(start[a] * rows + end[b], return_index=True,
                                  return_inverse=True)
    size = np.count_nonzero(law, axis=1)
    bound = np.zeros(into.size, dtype=np.intp)
    np.maximum.at(bound, pair, size[a] + size[b] - 1)
    count = counts[a] + counts[b]
    counts2 = count[first]
    if (np.bincount(into // rows, bound).max() > BLOCK_TABLE_CELLS
            or (counts2[pair] != count).any()):
        return None
    law2 = compose((law, start, end), (law, start, end), (a, b), BLOCK_TABLE_CELLS)
    return None if law2 is None else (*law2, counts2)


def last_draws_law(tables, plan, entry, rows):
    """The law under P of the total of a path's last D table draws, given
    the block-start row before them.  tables[j] is (pos, p, start, end), per
    cell of one table: its total in whole lattice units, its probability,
    its start row and its end row, of `rows` rows.  A path draws
    tables[plan[0]], tables[plan[1]], ... in turn, the first from one of the
    rows `entry` and each next one from the row the one before it ended in.
    Returns (D, lo, step, law): law[s, i] = P(total lo[s] + step i | row
    s), 0 past row s's greatest total and on each row no path starts the D
    draws from; or None when not even two draws fit.

    Only the cells that start where a path can start them are read, and
    their totals may lie on a coarser lattice: `step` is the gcd of the
    differences between the totals of each draw's cells, so each draw's
    totals share one residue mod step.  D is the largest number of last
    draws, at most len(plan), whose totals from each row span at most
    COMPLETION_CELLS steps, and whose spectra over all rows, at the least
    power of two N that holds every span, stay under ARRAY_BYTES.  The
    spans come first, from the least and the greatest total of each (start,
    end) pair: lo_s <- min over pairs of lo_{s,r} + lo_r, and hi_s
    likewise.

    The law is then built backwards in frequency space.  C_s, the law of
    the totals from row s, starts as the last table's from s, summed over
    its end rows, and each draw before it makes
        C_s <- sum_r L_{s,r} * C_r,
    L_{s,r} that draw's table from s into r: a product per frequency, over
    the (start, end) pairs.  Each distinct table is transformed once
    (`rfft`, in chunks of pairs under ARRAY_BYTES), each total at its steps
    mod N, and the law once at the end (`irfft`).  No span exceeds N, so no
    two totals of one row share a residue mod N: the circular convolution
    is the linear one, read from lo_s on.  The rounding leaves each cell
    off by a few 1e-18 to a few 1e-17 absolute, both ways, so every cell
    below the bound on that error (`rounding_error`) is set to 0: clipping
    only the negative noise would leave the positive noise, a one-sided
    bias that gives a tail no path reaches a probability of about 1e-16.
    The law only multiplies a likelihood ratio of mean 1, so an absolute
    error in its tails moves an estimate's mean by no more (see
    CHANGES.md)."""
    if len(plan) < 2:
        return None
    entered = {}

    def draw(d):
        # the cells of the d-th draw from the end that start in a row a path
        # starts it from, `entry` or an end row of the draw before it, their
        # (start, end) pairs, sorted, each pair's least and greatest total,
        # and the gcd of their differences
        key = plan[-d], plan[-d - 1] if d < len(plan) else None
        if key not in entered:
            pos, p, start, end = tables[key[0]]
            into = np.zeros(rows, dtype=bool)
            into[entry if key[1] is None else tables[key[1]][3]] = True
            cell = into[start]
            pos, p, start, end = pos[cell], p[cell], start[cell], end[cell]
            pairs, first, pair = np.unique(start * rows + end, return_index=True,
                                           return_inverse=True)
            lo, hi = pos[first], pos[first]
            np.minimum.at(lo, pair, pos)
            np.maximum.at(hi, pair, pos)
            entered[key] = (pos, p, start, pair, pairs // rows, pairs % rows, lo.astype(float),
                            hi.astype(float), int(np.gcd.reduce(pos - pos[0])))
        return entered[key]

    def span(lo, hi):
        # the most lattice units the totals of one row span
        return int((hi - lo)[lo < math.inf].max())

    # the spans of no draws are 0; every law on the way is transformed at one
    # length, so the widest span over the draws so far sets it
    lo, hi, widest, draws, step = np.zeros(rows), np.zeros(rows), 0, 0, 0
    while draws < len(plan):
        _, _, _, _, s, r, plo, phi, gcd = draw(draws + 1)
        lo2, hi2 = np.full(rows, math.inf), np.full(rows, -math.inf)
        np.minimum.at(lo2, s, plo + lo[r])
        np.maximum.at(hi2, s, phi + hi[r])
        finer, wider = math.gcd(step, gcd), max(widest, span(lo2, hi2))
        width = wider // (finer or 1) + 1
        size = 1 << (width - 1).bit_length()
        if width > COMPLETION_CELLS or rows * (size + 2) * 8 >= ARRAY_BYTES:
            break
        lo, hi, draws, step, widest = lo2, hi2, draws + 1, finer, wider
    if draws < 2:
        return None
    step = step or 1
    width = widest // step + 1
    size = 1 << (width - 1).bit_length()

    def dense(pos, p, row, count):
        # count rows of length size, each total at its steps mod size
        cell = row * size + (pos // step) % size
        return np.bincount(cell, weights=p, minlength=count * size).reshape(count, size)

    pos, p, start = draw(1)[:3]
    # the totals' residue mod step, summed over the draws
    offset = sum(int(draw(d)[0][0]) % step for d in range(1, draws + 1))
    spec = np.fft.rfft(dense(pos, p, start, rows))
    chunk = max(1, ARRAY_BYTES // (16 * (size // 2 + 1)) - 1)
    spectra, prior, terms = {}, np.empty_like(spec), np.empty((chunk, spec.shape[1]), complex)
    for d in range(2, draws + 1):
        key = plan[-d], plan[-d - 1] if d < len(plan) else None
        if key not in spectra:
            pos, p, _, pair, s, r = draw(d)[:6]
            spectra[key] = []
            for a in range(0, s.size, chunk):
                cell = (pair >= a) & (pair < a + chunk)
                spectra[key].append((s[a:a + chunk].tolist(), r[a:a + chunk], np.fft.rfft(
                    dense(pos[cell], p[cell], pair[cell] - a, min(chunk, s.size - a)))))
        # prior and terms are reused from draw to draw: a draw allocates nothing
        prior.fill(0.0)
        for into, r, lhat in spectra[key]:
            term = np.take(spec, r, axis=0, out=terms[:len(into)], mode="clip")
            term *= lhat
            for i, row in enumerate(into):
                prior[row] += term[i]
        spec, prior = prior, spec
    law = np.fft.irfft(spec, n=size)
    law[law < rounding_error(law, draws)[:, None]] = 0.0
    some = lo < math.inf
    lo = np.where(some, lo, offset).astype(np.int64)
    # each row's totals from its least on, read around the circle
    out = np.zeros((rows, width))
    for row in np.flatnonzero(some).tolist():
        first, count = (lo[row] - offset) // step % size, (int(hi[row]) - lo[row]) // step + 1
        head = law[row, first:first + count]
        out[row, :head.size], out[row, head.size:count] = head, law[row, :count - head.size]
    return draws, lo, step, out


def rounding_error(law, draws):
    """A bound, per row, on the rounding error of each cell of the law that
    `last_draws_law` composes from `draws` tables, law[s] of length N as
    the inverse transform leaves it.  Each cell's error sums many small
    independent roundings: of each table's transform, of the products and
    sums over pairs, and of the inverse transform.  In root mean square
    they leave each frequency of row s off by about eps sqrt(draws + log2
    N) of its modulus, and the inverse transform spreads that error evenly
    over the N cells (Parseval), so each cell is off by an about normal
    error of standard deviation
        sigma_s = eps ||law[s]||_2 sqrt((draws + log2 N) / N).
    The bound is 8 sigma_s, where the largest of N <= 4096 normal errors
    rarely passes 4.5 sigma_s.  On every law the tests hold to direct
    convolution, no cell is off by 3 sigma_s."""
    size = law.shape[1]
    spread = (draws + math.log2(size)) / size
    return 8.0 * np.finfo(float).eps * np.sqrt(np.einsum("ij,ij->i", law, law) * spread)


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
    probabilities, from the top; rows already sorted, as a lattice law's
    are, are taken as they are.  start[row, b] counts the row's dx with
    (dx - lo + 1) / h <= b up to rounding, for buckets of width h over [lo
    - 1, hi + 1], lo and hi the least and the greatest finite dx: a path's
    bucket finds its boundary up to the few dx in one bucket.  There are 2
    buckets per column, or as many as keep `start` under ARRAY_BYTES, but
    at least one."""
    rows, w = dx.shape
    dx_of, tail = np.full((rows, w + 1), math.inf), np.zeros((rows, w + 1))
    if (dx[:, 1:] >= dx[:, :-1]).all():
        dx_of[:, :w], tail[:, :w] = dx, p
    else:
        cell = (np.argsort(dx, axis=1) + w * np.arange(rows)[:, None]).ravel()
        dx_of[:, :w] = dx.ravel()[cell].reshape(rows, w)
        tail[:, :w] = p.ravel()[cell].reshape(rows, w)
    tail = np.cumsum(tail[:, ::-1], axis=1)[:, ::-1]
    finite = dx[dx < math.inf]
    lo, hi = finite.min(), finite.max()
    buckets = max(w + 1, min(2 * (w + 1), ARRAY_BYTES // (8 * rows) - 2))
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
