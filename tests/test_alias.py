import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mdmart import alias
from mdmart.alias import (ARRAY_BYTES, COMPLETION_CELLS, alias_draw, alias_tables, draw_plan,
                          last_draws_law, tail_index)
from mdmart.mixing import _block_tables, _completion, block_indices, two_state_chain
from mdmart.models import ConditionalLaw, MartingaleModel, make_regime_switch
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
# D it integrates where it is pinned: regime_switch's, and the block-sum
# ones of the lattice chains at n = 10^4 (m = 15, k = 333, 13 draws for the
# two-state chains and 43 for three_state) and of three_state at n = 2000
# (m = 9, k = 111), where D is all 10 draws of the plan, the first from any
# state
ENGINE_CASES = [(regime_switch_completion, (n, gamma), None)
                for n in (96, 400, 1600) for gamma in (0.2, 0.3, 0.45)] + [
    (chain_completion, (LATTICE_CHAINS[0][0], 10 ** 4), 11),
    (chain_completion, (LATTICE_CHAINS[1][0], 10 ** 4), 11),
    (chain_completion, (LATTICE_CHAINS[2][0], 10 ** 4), 18),
    (chain_completion, (three_state_chain(), 2000), 10)]
ENGINE_IDS = [f"{n}-{gamma}" for n in (96, 400, 1600) for gamma in (0.2, 0.3, 0.45)] + [
    f"{name}-10000" for name in LATTICE_IDS] + ["three_state-2000"]


def direct_last_draws(cells, entry, rows, draws):
    """The law of the total of the last `draws` of the tables `cells` per
    start row, composed backwards by direct `np.convolve` per (start, end)
    pair, C_s <- sum_r convolve(L_{s,r}, C_r), reading only the cells that
    start in a row a path starts them from: one of `entry` for the first
    table, an end row of the table before it for each other one.  Returns
    (step, laws): laws[d - 1] maps each row s to (lo, law) of the last d
    draws, law[i] = P(total lo + step i | s), step the gcd of the
    differences between the totals of each draw's cells."""
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
    return step, laws


def fits(step, laws, rows):
    """Whether laws of these spans fit `last_draws_law`'s bounds."""
    width = max(law.size for C in laws for _, law in C.values())
    return width <= COMPLETION_CELLS and \
        rows * ((1 << (width - 1).bit_length()) + 2) * 8 < ARRAY_BYTES


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
        assert draws <= len(cells) and pinned in (None, draws)
        if draws < len(cells):
            assert not fits(*direct_last_draws(cells, entry, rows, draws + 1), rows)
        assert completion[0] == draws
        if out is None:
            return
        _, lo, step, law = out
        want_step, laws = direct_last_draws(cells, entry, rows, draws)
        assert step == want_step and fits(step, laws, rows)
        C = laws[-1]
        assert not law[[s for s in range(rows) if s not in C]].any()
        for s, (lo_s, want) in C.items():
            i = (lo_s - lo[s]) // step
            assert (lo_s - lo[s]) % step == 0 and i >= 0
            full = np.zeros(law.shape[1])
            full[i:i + want.size] = want
            kept = law[s] > 0.0
            assert np.abs(law[s] - full)[kept].max() <= bounds[0][s]
            assert full[~kept].max(initial=0.0) < 2.0 * bounds[0][s]
            got_tail, want_tail = (np.cumsum(a[::-1])[::-1] for a in (law[s], full))
            assert np.abs(got_tail - want_tail).max() <= 1e-15
            assert abs(got_tail[0] - 1.0) <= 1e-12
        tail = completion[1][1]
        assert tail.min() >= 0.0 and tail.max() <= 1.0 + 1e-12
        assert (np.diff(tail, axis=1) <= 0.0).all()

    def test_no_lattice_integrates_one_draw(self):
        # values on no lattice: not even two draws fit, and the last table
        # is integrated alone, its cells at their own dx
        model = Irrational(40)
        cells, entry, rows = model_draws(model)
        assert len(cells) > 1
        assert last_draws_law(cells, list(range(len(cells))), entry, rows) is None
        assert model._completion[0] == 1

    def test_no_array_reaches_the_bound(self, tmp_path):
        # glibc serves an allocation of ARRAY_BYTES by mmap, unless a free
        # block of the heap holds it, until an mmapped block at least that
        # large is freed, which raises its threshold to that block's size.
        # Built in a fresh process from saved tables, the law leaves the
        # threshold below ARRAY_BYTES, as a probe from a new thread, whose
        # heap holds nothing, reads it; and it keeps no array that large
        pytest.importorskip("ctypes")
        model = make_regime_switch(1600, 0.3)
        tables, plan = model._blocks
        np.savez(tmp_path / "cells.npz", *[a for g in tables for a in g.cells()])
        code = (
            "import ctypes, sys, threading\n"
            "import numpy as np\n"
            "from mdmart.alias import ARRAY_BYTES, last_draws_law, tail_index\n"
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
            "index = tail_index((lo[:, None] + step * np.arange(law.shape[1])) * 0.1, law)\n"
            "kept = max(x.nbytes for x in (lo, law, *index[:3]))\n"
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
        assert out.split() == ["True", "True", "13", "True"]


class TestTailIndex:
    def test_sorted_rows_are_taken_as_they_are(self):
        # rows already sorted skip the sort, and give the index a sort gives
        rng = np.random.default_rng(4)
        dx = np.sort(rng.normal(size=(3, 40)), axis=1)
        p = rng.random((3, 40))
        order = rng.permutation(40)
        got, want = tail_index(dx, p), tail_index(dx[:, order], p[:, order])
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
