import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

from mdmart import alias
from mdmart.alias import (ARRAY_BYTES, COMPLETION_CELLS, COMPLETION_WORK, alias_draw,
                          alias_tables, draw_plan, inversion_draw, inversion_tables,
                          last_draws_law, lattice_tail, tail_index, tail_lookup)
from mdmart.mixing import _block_tables, _completion, block_indices, two_state_chain
from mdmart.models import ConditionalLaw, MartingaleModel, make_regime_switch
from mdmart.montecarlo import estimate_tail_tilted
from mdmart.tilt import choose_tilt
from test_mixing import LATTICE_CHAINS, LATTICE_IDS, three_state_chain


def vose_tables(p):
    """Walker's alias tables for each row of p by Vose's method (Vose 1991,
    IEEE TSE 17:972), one row at a time with two stacks filled in column
    order: the reference `alias_tables` is held to, pairing for pairing."""
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
        prob[s], alias[s] = keep, other
    return prob.ravel(), alias.ravel()


def implied_law(tables, W):
    """The law each row of alias tables draws from: column i is drawn with
    probability (keep_i + sum over the columns j that alias to i of
    (1 - keep_j)) / W."""
    prob, alias = tables
    S = prob.size // W
    law = prob.copy()
    np.add.at(law, np.repeat(np.arange(S), W) * W + alias, 1.0 - prob)
    return law.reshape(S, W) / W


def random_rows(kind, rng):
    S, W = int(rng.integers(1, 6)), int(rng.integers(1, 700))
    p = rng.random((S, W))
    if kind == "power-skewed":
        p **= 12
    elif kind == "with zeros":
        p *= rng.random((S, W)) < 0.4
    elif kind == "all-zero":
        p[rng.integers(S)] = 0.0
    elif kind == "one-hot":
        p = np.zeros((S, W))
        p[np.arange(S), rng.integers(W, size=S)] = rng.random(S) + 0.5
    return p


def criterion_12_tables():
    # the tables the block-sum sampler draws from at criterion 12's config
    m, k, _ = block_indices(10 ** 4, 0.3)
    ladder = _block_tables(two_state_chain(0.3, 0.3), m, k)
    return [joint.reshape(joint.shape[0], -1) for _, joint in ladder]


def law_error(tables, p):
    """The largest distance between the law the tables imply and p / sum(p),
    over the rows that are drawn from (sum(p) > 0)."""
    drawn = p.sum(axis=1) > 0.0
    want = p[drawn] / p[drawn].sum(axis=1, keepdims=True)
    return np.abs(implied_law(tables, p.shape[1])[drawn] - want).max(initial=0.0)


def check_against_vose(rows):
    """On each row set: the same alias for every cell as Vose's method, the
    keep probabilities of the light cells it pairs bit for bit and all of
    them to 1e-12; and over all the row sets, an implied law as close to
    p / sum(p) as Vose's own, up to a factor 2 (both are within a few
    units of rounding)."""
    err = ref = 0.0
    for p in rows:
        (prob, alias), want = alias_tables(p), vose_tables(p)
        assert np.array_equal(alias, want[1])
        total = p.sum(axis=1, keepdims=True)
        q = (p * (p.shape[1] / np.where(total > 0.0, total, 1.0))).ravel()
        paired = (q < 1.0) & (alias != np.arange(alias.size) % p.shape[1])
        assert np.array_equal(prob[paired], want[0][paired])
        assert np.abs(prob - want[0]).max() <= 1e-12
        err, ref = max(err, law_error((prob, alias), p)), max(ref, law_error(want, p))
    assert err <= 2.0 * ref


KINDS = ["uniform", "power-skewed", "with zeros", "all-zero", "one-hot"]


class TestAliasTables:
    @pytest.mark.parametrize("kind", KINDS)
    def test_random_rows_pair_as_voses(self, kind):
        rng = np.random.default_rng(KINDS.index(kind))
        check_against_vose([random_rows(kind, rng) for _ in range(40)])

    def test_block_sum_tables_pair_as_voses(self):
        # every table of criterion 12's block-sum sampler
        tables = criterion_12_tables()
        assert len(tables) == 6
        check_against_vose(tables)

    def test_draws_follow_the_law(self):
        # one skewed row, drawn through `alias_draw`: each column's count
        # within 4 SE of its expectation
        rng = np.random.default_rng(3)
        p = rng.random((3, 50)) ** 4
        size = 1 << 16
        col = alias_draw(alias_tables(p), 50, 50, rng.random(size))
        want = p[1] / p[1].sum()
        got = np.bincount(col, minlength=50) / size
        assert np.all(np.abs(got - want) <= 4.0 * np.sqrt(want * (1.0 - want) / size))


def edge_uniforms(cdf, rng, size):
    """Uniforms on the grid of 2^-53 for drawing by inversion: random ones,
    0, the largest below 1, and each cumulative probability below 1 with
    its neighbours on the grid."""
    grid = np.unique(np.floor(cdf[cdf < 1.0] * 2.0 ** 53) / 2.0 ** 53)
    u = np.concatenate((rng.random(size), [0.0, 1.0 - 2.0 ** -53], grid, grid + 2.0 ** -53,
                        np.maximum(grid - 2.0 ** -53, 0.0)))
    return u[u < 1.0]


class TestInversionTables:
    @pytest.mark.parametrize("kind", KINDS)
    def test_draw_is_the_least_cell_past_u(self, kind):
        # per path, the least column of its row whose cumulative
        # probability exceeds u, as a search of that row finds it, at
        # random uniforms and at every cumulative probability and its
        # neighbours on the grid; never a column of no mass, and the same
        # by the sorted search over all rows and by the search row by row.
        # The cumulative probabilities are those of the row's law, summed in
        # extended precision, within 2 W ulps of 1
        rng = np.random.default_rng(KINDS.index(kind))
        searched = 0
        for _ in range(20):
            p = random_rows(kind, rng)
            S, W = p.shape
            cdf, guide, key = inversion_tables(p)
            assert key is not None and guide.shape == (S, 1 << (4 * W - 1).bit_length())
            live = np.flatnonzero(p.sum(axis=1) > 0.0)
            if not live.size:
                continue
            last = W - 1 - np.argmax(p[:, ::-1] > 0.0, axis=1)
            before = np.arange(W) < last[:, None]
            u = edge_uniforms(cdf, rng, 2000)
            row = rng.choice(live, u.size)
            ref = np.empty(u.size, dtype=np.intp)
            for r in live.tolist():
                long = np.cumsum(p[r].astype(np.longdouble))
                got = cdf[r * W:(r + 1) * W]
                assert np.all(np.abs(got - long / long[-1])[before[r]] <= 2 * W * 2.0 ** -53)
                assert np.all(got[~before[r]] == 1.0)
                ref[row == r] = r * W + np.searchsorted(got, u[row == r], side="right")
            got = inversion_draw((cdf, guide, key), row, u)
            assert np.array_equal(got, ref)
            assert (p.ravel()[got] > 0.0).all()
            assert np.array_equal(inversion_draw((cdf, guide, None), row, u), ref)
            # the paths that the guide and two steps leave to the search
            start = guide.ravel()[row * guide.shape[1] + (u * guide.shape[1]).astype(np.intp)]
            assert (start <= ref).all()
            searched += int(np.count_nonzero(ref - start > 2))
        if kind == "power-skewed":
            assert searched > 0

    def test_draw_grows_with_u(self):
        # from one row, the drawn column never falls as u rises, and an
        # all-zero row draws its last column
        rng = np.random.default_rng(7)
        p = rng.random((3, 300)) ** 8 * (rng.random((3, 300)) < 0.7)
        p[2] = 0.0
        tables = inversion_tables(p)
        u = np.sort(rng.random(1 << 14))
        for r in range(3):
            cell = inversion_draw(tables, np.full(u.size, r), u)
            assert (np.diff(cell) >= 0).all()
        assert (cell == 3 * 300 - 1).all()

    def test_rows_past_the_key_search_row_by_row(self):
        # 513 rows do not fit the key's row field: the search goes row by row
        p = np.random.default_rng(2).random((513, 3)) ** 40
        cdf, guide, key = inversion_tables(p)
        assert key is None
        u = edge_uniforms(cdf, np.random.default_rng(3), 5000)
        row = np.random.default_rng(4).integers(513, size=u.size)
        ref = [r * 3 + np.searchsorted(cdf[r * 3:r * 3 + 3], x, side="right")
               for r, x in zip(row.tolist(), u.tolist())]
        assert inversion_draw((cdf, guide, key), row, u).tolist() == ref

    def test_draws_follow_the_law(self):
        # one skewed row with tiny cells, drawn through `inversion_draw`:
        # each column's count within its exact Binomial(size, p) law's
        # 1e-4 / (2 * 50) and 1 - 1e-4 / (2 * 50) quantiles, a false-alarm
        # rate of at most 1e-4 over the 50 columns
        rng = np.random.default_rng(3)
        p = rng.random((3, 50)) ** 4
        size = 1 << 16
        cell = inversion_draw(inversion_tables(p), np.ones(size, dtype=np.intp), rng.random(size))
        want = p[1] / p[1].sum()
        got = np.bincount(cell - 50, minlength=50)
        level = 1e-4 / (2 * 50)
        assert np.all((binom.ppf(level, size, want) <= got) & (got <= binom.isf(level, size, want)))


class Irrational(MartingaleModel):
    """Steps of +-1 after a fall and +-sqrt(2) after a rise: value sums on
    no lattice."""

    def __init__(self, n):
        super().__init__("irrational", n, 1.0)

    def initial_state(self):
        return 0

    def law_at(self, state):
        v = math.sqrt(2.0) if state > 0 else 1.0
        return ConditionalLaw(((v, 0.5), (-v, 0.5)))

    def next_state(self, state, eta):
        return 1 if eta > 0 else -1


def model_draws(model):
    """(cells, entry, rows): the cells (pos, p, start, end) of each table a
    path of the model draws after its first, in order, as `last_draws_law`
    reads them, the rows a path starts them from, those its first draw ends
    in, and the number of block-start rows."""
    tables, plan = model._blocks
    cells = [tables[b].cells() for b in plan]
    return cells[1:], cells[0][3], tables[0].log_p.size // tables[0].width


def regime_switch_completion(n, gamma):
    """(cells, entry, rows, completion) of regime_switch's completion, its
    first draw from row 0: `model_draws` and the model's (draws, index)."""
    model = make_regime_switch(n, gamma)
    return (*model_draws(model), model._completion)


def chain_completion(chain, n):
    """(cells, entry, rows, completion) of the mixing experiment's
    completion at alpha = 0.3: the nonzero (total, next start) cells of
    every table a path draws, in order, each total in steps from its
    table's least, every state as a start state, as the stationary start
    may be any of them, and the chain's (draws, index)."""
    m, k, _ = block_indices(n, 0.3)
    ladder = _block_tables(chain, m, k)
    cells = []
    for b in draw_plan(k, len(ladder)):
        joint = ladder[b][1]
        s, i, t = np.nonzero(joint)
        cells.append((i, joint[s, i, t], s, t))
    S = chain.P.shape[0]
    return cells, np.arange(S), S, _completion(chain, m, k)


# the completions the engine is held to direct convolution on, each with the
# D it integrates where it is pinned: regime_switch's, with D pinned where the
# bound on spectral work in place of one on the rows' spectra moved it (at
# n = 96 for gamma = 0.45, 2 -> 6; at n = 400 for gamma = 0.2, 4 -> 6, and
# 0.45, 2 -> 6; at n = 1600 for gamma = 0.2, 4 -> 13, 0.3, 13 -> 26, and
# 0.45, 1 -> 6), at gamma = 0 and n = 6400 all 17 draws of its plan, and the
# block-sum ones of the lattice chains at n = 10^4 (m = 15, k = 333), where
# D is all 13 draws of the two-state chains' plans and 35 of three_state's
# 43, and of three_state at n = 2000 (m = 9, k = 111), where D is all 10
# draws of the plan, the first from any state
MOVED = {(96, 0.45): 6, (400, 0.2): 6, (400, 0.45): 6, (1600, 0.2): 13, (1600, 0.3): 26,
         (1600, 0.45): 6}
ENGINE_CASES = [(regime_switch_completion, (n, gamma), MOVED.get((n, gamma)))
                for n in (96, 400, 1600) for gamma in (0.2, 0.3, 0.45)] + [
    (regime_switch_completion, (6400, 0.0), 17),
    (chain_completion, (LATTICE_CHAINS[0][0], 10 ** 4), 13),
    (chain_completion, (LATTICE_CHAINS[1][0], 10 ** 4), 13),
    (chain_completion, (LATTICE_CHAINS[2][0], 10 ** 4), 35),
    (chain_completion, (three_state_chain(), 2000), 10)]
ENGINE_IDS = [f"{n}-{gamma}" for n in (96, 400, 1600) for gamma in (0.2, 0.3, 0.45)] + [
    "6400-0.0"] + [f"{name}-10000" for name in LATTICE_IDS] + ["three_state-2000"]


def direct_last_draws(cells, entry, rows, draws):
    """The law of the total of the last `draws` of the tables `cells` per
    start row, composed backwards by direct `np.convolve` per (start, end)
    pair, C_s <- sum_r convolve(L_{s,r}, C_r), reading only the cells that
    start in a row a path starts them from: one of `entry` for the first
    table, an end row of the table before it for each other one.  Returns
    (step, laws, pairs): laws[d - 1] maps each row s to (lo, law) of the
    last d draws, law[i] = P(total lo + step i | s), step the gcd of the
    differences between the totals of each draw's cells, and pairs[d - 1]
    the (start, end) pairs of the cells the d-th draw from the end reads."""
    last = []
    starts = [entry] + [c[3] for c in cells[:-1]]
    for before, (pos, p, start, end) in zip(starts[-draws:], cells[-draws:]):
        keep = np.isin(start, before)
        last.append((pos[keep], p[keep], start[keep], end[keep]))
    step = 0
    for pos, *_ in last:
        step = math.gcd(step, int(np.gcd.reduce(pos - pos[0])))
    step = step or 1

    def pairs(table, by_end):
        pos, p, start, end = table
        key = start * rows + (end if by_end else 0)
        out = {}
        for k in np.unique(key).tolist():
            sel = key == k
            lo = int(pos[sel].min())
            law = np.zeros((int(pos[sel].max()) - lo) // step + 1)
            np.add.at(law, (pos[sel] - lo) // step, p[sel])
            out[divmod(k, rows)] = lo, law
        return out

    laws = [{s: v for (s, _), v in pairs(last[-1], False).items()}]
    for table in last[-2::-1]:
        C = {}
        for (s, r), (lo, law) in pairs(table, True).items():
            if r in laws[-1]:
                lo_r, law_r = laws[-1][r]
                terms = C.setdefault(s, [])
                terms.append((lo + lo_r, np.convolve(law, law_r)))
        for s, terms in C.items():
            lo = min(a for a, _ in terms)
            law = np.zeros(max((a - lo) // step + c.size for a, c in terms))
            for a, c in terms:
                law[(a - lo) // step:(a - lo) // step + c.size] += c
            C[s] = lo, law
        laws.append(C)
    return step, laws, [len(pairs(table, True)) for table in last[::-1]]


def fits(step, laws, pairs):
    """Whether laws of these spans, from draws of these pairs, fit
    `last_draws_law`'s bounds: at most COMPLETION_CELLS steps, and at most
    COMPLETION_WORK pairs times frequencies."""
    width = max(law.size for C in laws for _, law in C.values())
    size = 1 << (width - 1).bit_length()
    return width <= COMPLETION_CELLS and sum(pairs) * (size // 2 + 1) <= COMPLETION_WORK


class TestLastDrawsLaw:
    @pytest.mark.parametrize("completion_of, args, pinned", ENGINE_CASES, ids=ENGINE_IDS)
    def test_spectral_law_is_the_direct_one(self, monkeypatch, completion_of, args, pinned):
        # the frequency-space law against direct convolution: every tail
        # within 1e-15 absolute, the mass 1 within 1e-12, and D the most
        # draws under the bounds, as the sampler's completion holds.  The
        # stated bound on each cell's rounding error holds: a cell kept is
        # within it of the direct law, and a cell set to 0, below the bound
        # as transformed, is below twice the bound in the direct law
        cells, entry, rows, completion = completion_of(*args)
        real, bounds = alias.rounding_error, []

        def recorded(law, draws):
            bounds.append(real(law, draws))
            return bounds[-1]

        monkeypatch.setattr(alias, "rounding_error", recorded)
        out = last_draws_law(cells, list(range(len(cells))), entry, rows)
        draws = 1 if out is None else out[0]
        assert draws <= len(cells) and pinned in (None, draws), draws
        if draws < len(cells):
            assert not fits(*direct_last_draws(cells, entry, rows, draws + 1))
        assert completion[0] == draws
        if out is None:
            return
        _, lo, step, law = out
        assert all(block.nbytes < ARRAY_BYTES for block in law)
        law = np.vstack(law)
        want_step, laws, pairs = direct_last_draws(cells, entry, rows, draws)
        assert step == want_step and fits(step, laws, pairs)
        C, bound = laws[-1], np.concatenate(bounds)
        assert not law[[s for s in range(rows) if s not in C]].any()
        for s, (lo_s, want) in C.items():
            i = (lo_s - lo[s]) // step
            assert (lo_s - lo[s]) % step == 0 and i >= 0
            full = np.zeros(law.shape[1])
            full[i:i + want.size] = want
            kept = law[s] > 0.0
            assert np.abs(law[s] - full)[kept].max() <= bound[s]
            assert full[~kept].max(initial=0.0) < 2.0 * bound[s]
            got_tail, want_tail = (np.cumsum(a[::-1])[::-1] for a in (law[s], full))
            assert np.abs(got_tail - want_tail).max() <= 1e-15
            assert abs(got_tail[0] - 1.0) <= 1e-12
        # each row's mass of its c greatest cells grows with c, to 1
        top = np.vstack(completion[1].top)
        assert top.min() >= 0.0 and top.max() <= 1.0 + 1e-12
        assert (np.diff(top, axis=1) >= 0.0).all()

    def test_each_read_transformed_once(self, monkeypatch):
        # at the mixing defaults the plan is [5] * 10 + [3, 2, 0], and a
        # path reads level 5 from every state both as its first draw and
        # after a draw of level 5: the same cells, so they are transformed
        # once.  Each transform takes a distinct array, and the law is, float
        # for float, the one that transforms every draw on its own
        chain = two_state_chain(0.3, 0.3)
        m, k, _ = block_indices(10 ** 4, 0.3)
        ladder = _block_tables(chain, m, k)
        plan = draw_plan(k, len(ladder))
        assert plan == [5] * 10 + [3, 2, 0]
        tables = []
        for _, joint in ladder:
            s, i, t = np.nonzero(joint)
            tables.append((i, joint[s, i, t], s, t))
        entry = np.arange(2)
        each = last_draws_law([tables[b] for b in plan], list(range(len(plan))), entry, 2)
        seen, real = [], np.fft.rfft

        def recorded(a, *args, **kwargs):
            seen.append(np.array(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recorded)
        out = last_draws_law(tables, plan, entry, 2)
        # the last draw (level 0), then levels 2, 3 and 5
        assert out[0] == len(plan) and len(seen) == 4
        assert not any(a.shape == b.shape and np.array_equal(a, b)
                       for i, a in enumerate(seen) for b in seen[:i])
        for a, b in zip(out, each):
            assert np.array_equal(a, b)

    def test_no_lattice_integrates_one_draw(self):
        # values on no lattice: not even two draws fit, and the last table
        # is integrated alone, its cells at their own dx
        model = Irrational(40)
        cells, entry, rows = model_draws(model)
        assert len(cells) > 1
        assert last_draws_law(cells, list(range(len(cells))), entry, rows) is None
        assert model._completion[0] == 1

    @pytest.mark.parametrize("gamma, integrated", [(0.2, 13), (0.3, 26), (0.45, 6)])
    def test_no_array_reaches_the_bound(self, tmp_path, gamma, integrated):
        # glibc serves an allocation of ARRAY_BYTES by mmap, unless a free
        # block of the heap holds it, until an mmapped block at least that
        # large is freed, which raises its threshold to that block's size.
        # Built in a fresh process from saved tables, the law and its tail
        # leave the threshold below ARRAY_BYTES, as a probe from a new
        # thread, whose heap holds nothing, reads it; and they keep no array
        # that large.  At n = 1600 the spectra of all rows and the law pass
        # ARRAY_BYTES at each gamma (R = 47, 13 and 199 rows), so they are
        # held in blocks
        pytest.importorskip("ctypes")
        model = make_regime_switch(1600, gamma)
        tables, plan = model._blocks
        np.savez(tmp_path / "cells.npz", *[a for g in tables for a in g.cells()])
        code = (
            "import ctypes, sys, threading\n"
            "import numpy as np\n"
            "from mdmart.alias import ARRAY_BYTES, last_draws_law, lattice_tail\n"
            "libc = ctypes.CDLL(None)\n"
            "class Info(ctypes.Structure):\n"
            "    _fields_ = [(k, ctypes.c_size_t) for k in ('arena', 'ordblks', 'smblks', 'hblks',\n"
            "                'hblkhd', 'usmblks', 'fsmblks', 'uordblks', 'fordblks', 'keepcost')]\n"
            "libc.mallinfo2.argtypes, libc.mallinfo2.restype = [], Info\n"
            "libc.malloc.argtypes, libc.malloc.restype = [ctypes.c_size_t], ctypes.c_void_p\n"
            "def mapped():\n"
            "    # not freed: freeing an mmapped block would raise the threshold\n"
            "    out = []\n"
            "    def probe():\n"
            "        before = libc.mallinfo2().hblks\n"
            "        libc.malloc(ARRAY_BYTES)\n"
            "        out.append(libc.mallinfo2().hblks > before)\n"
            "    thread = threading.Thread(target=probe)\n"
            "    thread.start()\n"
            "    thread.join()\n"
            "    return out[0]\n"
            "saved = np.load(sys.argv[1])\n"
            "a = [saved[f'arr_{i}'] for i in range(len(saved.files))]\n"
            "tables = [tuple(a[i:i + 4]) for i in range(0, len(a), 4)]\n"
            "fresh = mapped()\n"
            f"draws, lo, step, law = last_draws_law(tables, {plan[1:]}, tables[{plan[0]}][3],\n"
            f"                                      {tables[0].log_p.size // tables[0].width})\n"
            "index = lattice_tail(law, lo, step, 0.1)\n"
            "kept = max(x.nbytes for x in (lo, *law, *index.top))\n"
            "print(fresh, mapped(), draws, kept < ARRAY_BYTES)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(alias.__file__).resolve().parents[1])}
        try:
            out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "cells.npz")],
                                 env=env, check=True, capture_output=True, text=True,
                                 timeout=120).stdout
        except subprocess.CalledProcessError as e:
            if "mallinfo2" in e.stderr:
                pytest.skip("no glibc mallinfo2")
            raise
        assert out.split() == ["True", "True", str(integrated), "True"]


    def test_deeper_completion_is_unbiased(self):
        # regime_switch at gamma = 0.2, n = 400 integrates 6 of the 7 draws
        # after its first (4 while the spectra of all rows had to fit one
        # array).  Its tilted estimates at thresholds off the lattice of X_n
        # (steps of 0.02) lie within 4 SE of the exact tail: the whole plan
        # from row 0, composed directly
        model = make_regime_switch(400, 0.2)
        tables, plan = model._blocks
        assert model._completion[0] == 6 and len(plan) == 7
        cells = [tables[b].cells() for b in plan]
        step, laws, _ = direct_last_draws(cells, np.array([0]),
                                          tables[0].log_p.size // tables[0].width, len(cells))
        lo, law = laws[-1][0]
        values = (lo + step * np.arange(law.size)) * tables[0].unit
        assert step * tables[0].unit == pytest.approx(0.02)
        for i, x in enumerate((0.505, 1.005, 1.505, 2.005, 2.505)):
            exact = math.fsum(law[values > x].tolist())
            est = estimate_tail_tilted(model, x, choose_tilt(model, x).lam, 20000, 3, row=i)
            assert abs(est.p_hat - exact) <= 4.0 * est.std_err, (x, est.p_hat, exact)


class TestTailIndex:
    def test_sorted_rows_are_taken_as_they_are(self):
        # rows already sorted skip the sort, and give the index a sort gives
        rng = np.random.default_rng(4)
        dx = np.sort(rng.normal(size=(3, 40)), axis=1)
        p = rng.random((3, 40))
        order = rng.permutation(40)
        got, want = tail_index(dx, p), tail_index(dx[:, order], p[:, order])
        for a, b in zip(got, want):
            assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_lattice_tail_decides_in_units(self):
        # a path counts when its units so far plus a cell's exceed the
        # threshold's, a threshold within 1e-9 units of a lattice point
        # taken as that point: a path that ends there does not count, however
        # its float sum rounds.  The law in blocks of rows reads as in one
        rng = np.random.default_rng(5)
        law = rng.random((7, 12))
        law /= law.sum(axis=1, keepdims=True)
        lo, step, unit = rng.integers(-6, 6, 7), 3, 0.1
        one = lattice_tail([law], lo, step, unit)
        blocks = lattice_tail([law[:3], law[3:6], law[6:]], lo, step, unit)
        row, k = rng.integers(0, 7, 2000), rng.integers(-30, 30, 2000)
        # the path's float value so far, a few roundings off k units
        x = k * unit + rng.normal(scale=1e-15, size=k.size)
        totals = lo[row, None] + step * np.arange(12)
        for m in (-7, 0, 4, 19):
            for past, over in ((m * unit, m), (m * unit + 3e-12, m), (m * unit - 3e-12, m),
                               ((m + 0.4) * unit, m), ((m - 0.4) * unit, m - 1)):
                want = np.where(k[:, None] + totals > over, law[row], 0.0).sum(axis=1)
                got = tail_lookup(one, past, row, x)
                assert np.abs(got - want).max() <= 1e-12
                assert np.array_equal(tail_lookup(blocks, past, row, x), got)
