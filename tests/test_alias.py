import numpy as np
import pytest

from mdmart.alias import alias_draw, alias_tables
from mdmart.mixing import _block_tables, block_indices, two_state_chain


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
    return [joint.reshape(joint.shape[0], -1) for _, joint, _ in ladder]


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
