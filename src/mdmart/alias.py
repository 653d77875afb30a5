"""Drawing from tabulated finite laws, and the laws of block sums.  Walker's
alias method, shared by the block-sum sampler and the Berbee coupling in
`mixing`: the tables of all rows are built at once, by prefix sums over
Vose's pairing (Vose 1991, IEEE TSE 17:972; Hübschle-Schneider & Sanders,
ESA 2019).  Inversion, the block sampler of every state-dependent model in
`models` (`inversion_tables`, `inversion_draw`): its draw grows with the
uniform, so that a randomized quasi-Monte Carlo point set keeps its
balance through it.  Also here: the
distinct cells of a forward pass over one block (`distinct_cells`), by
which both passes merge the cells that share their fields, each total in
whole units of a lattice; the law of two consecutive blocks from the law
of one (`doubled`), by convolution along those units (`compose`), the one
routine by which both block samplers double their tables; the plan by
which they draw 2^b blocks with one uniform; the law of the total of a
path's last draws, composed in frequency space (`last_draws_law`), the one
engine behind both samplers' completions, at one cap on its width and one
on its work (`COMPLETION_CELLS`, `COMPLETION_WORK`); and the tail of those
draws given a path's value so far, which both integrate instead of drawing
them (`tail_lookup`): in whole units of the lattice for a law on one
(`lattice_tail`), by the float sum for one that is not (`tail_index`)."""
from __future__ import annotations

import math
from typing import NamedTuple

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
# to transform.  8192 is the widest of 4096, 8192 and 16384 at which the
# tails of the laws the tests hold to direct convolution stay within the
# engine's 1e-15 (see CHANGES.md).  A row of its spectrum is then 64 KB, so
# the engine's arrays fit under ARRAY_BYTES in blocks of rows
COMPLETION_CELLS = 8192

# most spectral work in the law of a path's last draws (`last_draws_law`):
# summed over the draws composed, each draw's (start, end) pairs times the
# N/2 + 1 frequencies of its transform, N the transform's length.  It bounds
# the products and the transforms of a deeper law, whose variance falls
# ever more slowly.  3e6 is the least round bound that integrates all 26 of
# regime_switch's last draws that fit COMPLETION_CELLS at gamma = 0.3, n =
# 1600 (2.98e6); at gamma = 0.45 (199 rows) it takes 6 draws, past which a
# deeper law's build costs about what its variance saves at n >= 1600
# (tests/completion_sweep.py, CHANGES.md)
COMPLETION_WORK = 3_000_000

# a modulus below which `last_draws_law` drops a frequency once every row's
# spectrum is below it there: no later product raises it, and each cell of
# the law moves by less than it, far below the law's rounding error
TINY = 1e-20

# no array that `last_draws_law`, `lattice_tail` or `tail_index` allocates
# or keeps reaches this many bytes: they hold the rows of a law and of its
# spectra in blocks under it.  glibc serves a block this large by mmap, and
# freeing one raises its mmap threshold to that block's size, which changes
# how every later allocation below it is served: the benchmark's 512 KB
# reference kernel runs faster or slower for it (ROADMAP item 8)
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


def inversion_tables(p: np.ndarray):
    """(cdf, guide, key): the tables by which `inversion_draw` draws a cell
    from each row of p by inversion, flattened over (row, column) as p is.
    cdf[s, i] is the cumulative probability of columns 0..i of row s,
    normalised by the row's sum and at most 1, and 1 from the row's last
    column of positive mass on, so every uniform in [0, 1) lands on a
    column of positive mass.  guide[s, g] is the first cell a uniform in
    [g / G, (g + 1) / G) can draw, the row's columns with cdf <= g / G
    counted from its first cell, for G the least power of two at least 4
    times the row's width: a power of two, so that u G and g / G are exact
    (Chen & Asau 1974; Devroye 1986, ch. III.2).  key[s, i] is s 2^54 +
    ceil(cdf[s, i] 2^53), by which one sorted search over all rows finds a
    cell, and None where the rows do not fit in int64.  An all-zero row,
    which is never drawn from, draws its last column."""
    S, W = p.shape
    total = p.sum(axis=1, keepdims=True)
    cdf = np.minimum(np.cumsum(p, axis=1) / np.where(total > 0.0, total, 1.0), 1.0)
    last = W - 1 - np.argmax(p[:, ::-1] > 0.0, axis=1)
    cdf[np.arange(W) >= last[:, None]] = 1.0
    size = 1 << (4 * W - 1).bit_length()
    # cell i counts for the buckets g >= ceil(cdf G), exact as G is a power
    # of two; a cell at 1 counts for none
    rows = np.arange(S)[:, None]
    first = np.ceil(cdf * size).astype(np.intp) + (size + 1) * rows
    count = np.bincount(first.ravel(), minlength=S * (size + 1)).reshape(S, size + 1)
    guide = np.cumsum(count[:, :size], axis=1) + W * rows
    key = None if S > 1 << 9 else (np.ceil(cdf * 2.0 ** 53).astype(np.int64) + (rows << 54)).ravel()
    return cdf.ravel(), guide, key


def inversion_draw(tables, row, u):
    """One cell per uniform u in [0, 1) on the grid of 2^-53, drawn from
    row `row` of each path's `inversion_tables` by inversion: the row's
    least cell whose cumulative probability exceeds u, so the cell grows
    with u.  The guide gives a start at most a few cells short of it for
    almost every path, and two steps on the paths short of it reach it for
    almost all; the few left take a sorted search (`np.searchsorted`)."""
    cdf, guide, key = tables
    size = guide.shape[1]
    cell = guide.ravel()[row * size + (u * size).astype(np.intp)]
    short = np.flatnonzero(cdf[cell] <= u)
    for _ in range(2):
        cell[short] += 1
        short = short[cdf[cell[short]] <= u[short]]
    if key is not None:
        cell[short] = np.searchsorted(key, (u[short] * 2.0 ** 53).astype(np.int64)
                                      + (row[short] << 54), side="right")
        return cell
    width = cdf.size // guide.shape[0]
    for r in np.unique(row[short]).tolist():
        sel = short[row[short] == r]
        cell[sel] = r * width + np.searchsorted(cdf[r * width:(r + 1) * width], u[sel],
                                                side="right")
    return cell


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
    Returns (D, lo, step, law), law a list of blocks of consecutive rows,
    each of as many rows as the first but the last: row s is row s - a of
    the block from row a, and holds P(total lo[s] + step i | row s) at i,
    0 past its greatest total and on each row no path starts the D draws
    from.  Returns None when not even two draws fit.

    Only the cells that start where a path can start them are read, and
    their totals may lie on a coarser lattice: `step` is the gcd of the
    differences between the totals of each draw's cells, so each draw's
    totals share one residue mod step.  D is the largest number of last
    draws, at most len(plan), whose totals from each row span at most
    COMPLETION_CELLS steps, and whose spectral work stays at most
    COMPLETION_WORK: summed over the D draws, each draw's (start, end)
    pairs times the N/2 + 1 frequencies of a transform of length N, the
    least power of two that holds every span.  The spans come first, from
    the least and the greatest total of each pair: lo_s <- min over pairs
    of lo_{s,r} + lo_r, and hi_s likewise.

    The law is then built backwards in frequency space.  C_s, the law of
    the totals from row s, starts as the last table's from s, summed over
    its end rows, and each draw before it makes
        C_s <- sum_r L_{s,r} * C_r,
    L_{s,r} that draw's table from s into r: a product per frequency, over
    the (start, end) pairs, one pair at a time.  Each distinct read, a
    table and the rows its cells are read from, is transformed once
    (`rfft`), each total at its steps mod N, and the law once at the end
    (`irfft`).  Every array is held in blocks under ARRAY_BYTES: the spectra
    and the law in blocks of rows, and each read's spectra in chunks of
    pairs.  No product raises the largest modulus over the rows at one
    frequency f, as |sum_r L_{s,r}(f) C_r(f)| <= max_r |C_r(f)| times the
    mass of row s's cells, at most 1.  So once every row's modulus at f is
    below TINY it stays below it, and the products skip f: before draws
    2, 4, 8, ... the spectra are cut to the frequencies at which some row
    passes TINY, once a quarter of those kept fall below it, and each cell
    of the law moves by less than TINY.

    No span exceeds N, so no two totals of one row share a residue mod N:
    the circular convolution is the linear one, read from lo_s on.  The
    rounding leaves each cell off by a few 1e-18 to a few 1e-17 absolute,
    both ways, so every cell below the bound on that error
    (`rounding_error`) is set to 0: clipping only the negative noise would
    leave the positive noise, a one-sided bias that gives a tail no path
    reaches a probability of about 1e-16.  The law only multiplies a
    likelihood ratio of mean 1, so an absolute error in its tails moves an
    estimate's mean by no more (see CHANGES.md)."""
    if len(plan) < 2:
        return None
    starts, entered = {}, {}

    def read(d):
        # the d-th draw from the end as its table and the rows a path starts
        # it from, `entry` or the end rows of the table before it: draws
        # that read the same cells share one key
        before = plan[-d - 1] if d < len(plan) else None
        if before not in starts:
            into = np.zeros(rows, dtype=bool)
            into[entry if before is None else tables[before][3]] = True
            starts[before] = into.tobytes()
        return plan[-d], starts[before]

    def draw(d):
        # the cells of the d-th draw from the end that start in a row a path
        # starts it from, their (start, end) pairs, sorted, each pair's least
        # and greatest total, and the gcd of their differences
        key = read(d)
        if key not in entered:
            pos, p, start, end = tables[key[0]]
            cell = np.frombuffer(key[1], dtype=bool)[start]
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
    lo, hi, widest, draws, step, pairs = np.zeros(rows), np.zeros(rows), 0, 0, 0, 0
    while draws < len(plan):
        _, _, _, _, s, r, plo, phi, gcd = draw(draws + 1)
        lo2, hi2 = np.full(rows, math.inf), np.full(rows, -math.inf)
        np.minimum.at(lo2, s, plo + lo[r])
        np.maximum.at(hi2, s, phi + hi[r])
        finer, wider = math.gcd(step, gcd), max(widest, span(lo2, hi2))
        width = wider // (finer or 1) + 1
        size = 1 << (width - 1).bit_length()
        if width > COMPLETION_CELLS or (pairs + s.size) * (size // 2 + 1) > COMPLETION_WORK:
            break
        lo, hi, draws, step, widest, pairs = lo2, hi2, draws + 1, finer, wider, pairs + s.size
    if draws < 2:
        return None
    step = step or 1
    width = widest // step + 1
    size = 1 << (width - 1).bit_length()
    # the rows in a block of the spectra and of the law, and the pairs in a
    # chunk of a read's spectra, each block under ARRAY_BYTES: a row of
    # N/2 + 1 frequencies takes at most 64 KB at N <= COMPLETION_CELLS
    per = max(1, ARRAY_BYTES // (16 * (size // 2 + 1)) - 1)
    blocks = [(a, min(per, rows - a)) for a in range(0, rows, per)]

    def spectra(pos, p, row, a, count):
        # the spectra of rows a to a + count of the cells in row `row`,
        # each total at its steps mod size
        cell = (row >= a) & (row < a + count)
        dense = np.bincount((row[cell] - a) * size + (pos[cell] // step) % size,
                            weights=p[cell], minlength=count * size)
        return np.fft.rfft(dense.reshape(count, size))

    pos, p, start = draw(1)[:3]
    # the totals' residue mod step, summed over the draws
    offset = sum(int(draw(d)[0][0]) % step for d in range(1, draws + 1))
    spec = [spectra(pos, p, start, a, count) for a, count in blocks]
    prior, term = [np.empty_like(block) for block in spec], np.empty(size // 2 + 1, complex)
    # the spectra hold only the frequencies `kept` (None: all), checked
    # before draws 2, 4, 8, ..., as a check costs about as much as a draw's
    # products, and cut when a quarter of them fall below TINY; each read's
    # spectra are cut to them when first read after a cut
    kept, reads, cut = None, {}, {}
    for d in range(2, draws + 1):
        if d & (d - 1) == 0:
            live = np.logical_or.reduce([(np.abs(block) > TINY).any(axis=0) for block in spec])
            if 4 * np.count_nonzero(live) <= 3 * live.size:
                kept = np.flatnonzero(live) if kept is None else kept[live]
                spec = [np.ascontiguousarray(block[:, live]) for block in spec]
                prior, term = [np.empty_like(block) for block in spec], term[:kept.size]
                cut.clear()
        key = read(d)
        if key not in reads:
            # per pair: its start row, whether it is that row's first pair,
            # its end row and its spectrum; and the rows no pair starts in
            pos, p, _, pair, s, r = draw(d)[:6]
            lhat = [row for a in range(0, s.size, per)
                    for row in spectra(pos, p, pair, a, min(per, s.size - a))]
            first = np.append(True, s[1:] != s[:-1]).tolist()
            reads[key] = (list(zip(s.tolist(), first, r.tolist(), lhat)),
                          np.setdiff1d(np.arange(rows), s).tolist())
        pairs, idle = reads[key]
        if key not in cut:
            cut[key] = [lhat if kept is None else lhat[kept] for *_, lhat in pairs]
        # a row's terms are summed in the order of r, the first one into the
        # row itself; prior and term are reused, so a product allocates
        # nothing
        spec_rows, prior_rows = ([row for block in b for row in block] for b in (spec, prior))
        for (into, first, r, _), lhat in zip(pairs, cut[key]):
            if first:
                np.multiply(spec_rows[r], lhat, out=prior_rows[into])
            else:
                prior_rows[into] += np.multiply(spec_rows[r], lhat, out=term)
        for row in idle:
            prior_rows[row].fill(0.0)
        spec, prior = prior, spec
    if kept is not None:
        for b, block in enumerate(spec):
            spec[b] = np.zeros((block.shape[0], size // 2 + 1), complex)
            spec[b][:, kept] = block
    some = lo < math.inf
    lo = np.where(some, lo, offset).astype(np.int64)
    law = []
    for (a, count), block in zip(blocks, spec):
        dense = np.fft.irfft(block, n=size)
        dense[dense < rounding_error(dense, draws)[:, None]] = 0.0
        # each row's totals from its least on, read around the circle
        out = np.zeros((count, width))
        for row in np.flatnonzero(some[a:a + count]).tolist():
            first = (lo[a + row] - offset) // step % size
            cells = (int(hi[a + row]) - lo[a + row]) // step + 1
            head = dense[row, first:first + cells]
            out[row, :head.size], out[row, head.size:cells] = head, dense[row, :cells - head.size]
        law.append(out)
    return draws, lo, step, law


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
    The bound is 8 sigma_s, where the largest of N <= 8192 normal errors
    rarely passes 5 sigma_s.  On the laws the tests hold to direct
    convolution, no cell is off by 5 sigma_s (see CHANGES.md)."""
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


class LatticeTail(NamedTuple):
    """The tail of a lattice law per row, as `tail_lookup` reads it.  Row
    s holds the law of totals base + unit (lo[s] + step i), and a path's
    value so far lies on origin + unit Z, so its value with them lies on
    origin + base + unit Z.  top holds the rows in the blocks of the law
    (`last_draws_law`), and top[b][j, c] is the mass of the c greatest
    cells of row j of block b, from c = 0 to the law's width."""
    top: list
    lo: np.ndarray
    step: int
    unit: float
    origin: float
    base: float


class SortedTail(NamedTuple):
    """The tail of a law per row on no lattice, as `tail_lookup` reads it:
    dx[row] holds the row's values sorted, then inf, and top[row][c] the
    mass of its c greatest values."""
    dx: list
    top: list


def lattice_tail(law, lo, step, unit, origin=0.0, base=0.0):
    """The `LatticeTail` of a law in blocks of rows as `last_draws_law`
    gives it, its totals and a path's value so far on the lattices that
    `LatticeTail` states."""
    top = []
    for block in law:
        mass = np.zeros((block.shape[0], block.shape[1] + 1))
        np.cumsum(block[:, ::-1], axis=1, out=mass[:, 1:])
        top.append(mass)
    return LatticeTail(top, lo, step, unit, origin, base)


def tail_index(dx, p):
    """The `SortedTail` of a law per row from its cells: dx[row, j] the
    value a cell adds (inf for a cell with no value) and p[row, j] its
    probability.  Rows already sorted, as a table's totals are, are taken
    as they are."""
    ordered = (dx[:, 1:] >= dx[:, :-1]).all()
    values, top = [], []
    for d, q in zip(dx, p):
        if not ordered:
            order = np.argsort(d)
            d, q = d[order], q[order]
        mass = np.zeros(d.size + 1)
        np.cumsum(q[::-1], out=mass[1:])
        values.append(np.append(d, math.inf))
        top.append(mass)
    return SortedTail(values, top)


def tail_lookup(index, past, row, x):
    """P(X > past | row) per path, X = x + D, x its value so far, row its
    row and D a total of the law of that row in `index`.

    A `LatticeTail` decides X > past in whole units of its lattice: x is
    rounded to the lattice, and past, when within 1e-9 units of a lattice
    point, is taken as that point.  So a path that ends exactly at past
    does not count, whatever the rounding of its float sum.  The least
    total past it is then one cell of the path's row, read directly, and
    the rows are read block by block.

    A `SortedTail` counts a value when the float sum x + dx exceeds past,
    for one table draw the sum the sampler would take: the boundary is
    found by `np.searchsorted` per row, and then fixed up by evaluating
    that sum at its neighbours (`first_over`)."""
    out = np.empty(row.size)
    if isinstance(index, SortedTail):
        for r in np.unique(row).tolist():
            sel = np.flatnonzero(row == r)
            dx, y = index.dx[r], x[sel]
            i = first_over(np.searchsorted(dx, past - y, side="right"), dx.size - 1,
                           lambda i: y + dx[i] > past)
            out[sel] = index.top[r][dx.size - 1 - i]
        return out
    top, lo, step, unit, origin, base = index
    per, width = top[0].shape[0], top[0].shape[1] - 1
    u = (past - origin - base) / unit
    if abs(u - round(u)) <= 1e-9:
        u = round(u)
    # the least total past it, in units from the row's least, and so the
    # first cell that counts
    least = math.floor(u) + 1 - np.rint((x - origin) / unit).astype(np.int64) - lo[row]
    cell = np.clip(-(-least // step), 0, width)
    part = row // per
    flat = (row - part * per) * (width + 1) + width - cell
    if len(top) == 1:
        return top[0].ravel()[flat]
    for b in np.unique(part).tolist():
        sel = np.flatnonzero(part == b)
        out[sel] = top[b].ravel()[flat[sel]]
    return out


def draw_plan(k, levels):
    """Which table each draw of a k-block path uses, given the tables for
    2^0, ..., 2^(levels-1) blocks: k >> (levels-1) draws from the largest,
    then one draw from table b for each set bit b of the remainder, largest
    first.  The plan's block counts add up to k."""
    top = levels - 1
    return [top] * (k >> top) + [b for b in range(top - 1, -1, -1) if k >> b & 1]
