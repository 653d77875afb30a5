import itertools
import json
import math

import numpy as np
import pytest

from mdmart import mixing
from mdmart.alias import BLOCK_TABLE_CELLS, COMPLETION_CELLS, draw_plan
from mdmart.cli import main
from mdmart.mixing import (MIX_CHUNK, ChainError,
                           MarkovChainSpec, _block_law, _block_tables, _completion,
                           berbee_couple, berbee_mismatch_probability,
                           beta_by_enumeration, beta_coefficient,
                           beta_two_state_closed_form, block_indices,
                           certify_chain,
                           covariance_bound_check,
                           exact_block_sum_variance, fit_beta_decay,
                           mixing_tail_experiment, psi_bar_coefficient,
                           simulate_block_sums, stationary_dist, tau_n,
                           two_state_chain)


def three_state_chain():
    """The 3-state chain of the mixing-blocks benchmark, with a centered
    unit-variance observable."""
    P = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    pi = stationary_dist(P)
    f = np.array([1.0, 0.0, -1.0])
    f = f - pi @ f
    return MarkovChainSpec(states=[0, 1, 2], P=P, f=f / math.sqrt(pi @ (f * f)))


def random_chain(rng, S):
    P = rng.random((S, S)) + 0.05
    P /= P.sum(axis=1, keepdims=True)
    return P


class TestStationary:
    def test_two_state_closed_form(self):
        a, b = 0.2, 0.4
        pi = stationary_dist(np.array([[1 - a, a], [b, 1 - b]]))
        assert pi[0] == pytest.approx(b / (a + b), abs=1e-12)
        assert pi[1] == pytest.approx(a / (a + b), abs=1e-12)

    def test_doubly_stochastic_uniform(self):
        P = np.array([[0.2, 0.5, 0.3], [0.3, 0.2, 0.5], [0.5, 0.3, 0.2]])
        assert np.allclose(stationary_dist(P), 1.0 / 3.0, atol=1e-12)

    def test_reducible_rejected(self):
        with pytest.raises(ChainError):
            stationary_dist(np.eye(2))
        with pytest.raises(ChainError):
            # periodic two-state flip
            stationary_dist(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestMixingCoefficients:
    def test_one_step_stationary(self):
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        for n in (1, 2, 5):
            assert beta_coefficient(P, n) < 1e-14
            assert psi_bar_coefficient(P, n) < 1e-13

    def test_two_state_closed_form(self):
        for a, b in ((0.2, 0.4), (0.1, 0.1), (0.45, 0.3)):
            P = np.array([[1 - a, a], [b, 1 - b]])
            for n in range(1, 21):
                assert beta_coefficient(P, n) == pytest.approx(
                    beta_two_state_closed_form(a, b, n), abs=1e-12)

    def test_brute_force_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            P = random_chain(rng, int(rng.integers(2, 4)))
            for n in range(1, 7):
                assert beta_coefficient(P, n) == pytest.approx(
                    beta_by_enumeration(P, n), abs=1e-10)

    def test_monotone_and_dominated(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            P = random_chain(rng, 3)
            betas = [beta_coefficient(P, n) for n in range(1, 10)]
            psis = [psi_bar_coefficient(P, n) for n in range(1, 10)]
            assert all(b1 >= b2 - 1e-14 for b1, b2 in zip(betas, betas[1:]))
            assert all(b <= p + 1e-14 for b, p in zip(betas, psis))

    def test_psi_decay_rate_is_second_eigenvalue(self):
        a, b = 0.3, 0.2
        P = np.array([[1 - a, a], [b, 1 - b]])
        lam2 = abs(1.0 - a - b)
        r = psi_bar_coefficient(P, 9) / psi_bar_coefficient(P, 8)
        assert r == pytest.approx(lam2, abs=1e-10)

    def test_beta_fit_reproduces_values(self):
        P = np.array([[0.7, 0.3], [0.3, 0.7]])
        beta = np.array([beta_coefficient(P, n) for n in range(1, 11)])
        a1, a2, tau = fit_beta_decay(beta)
        fitted = a1 * np.exp(-a2 * np.arange(1, 11) ** tau)
        assert np.max(np.abs(fitted / beta - 1.0)) < 0.01


class TestBlocks:
    def test_index_arithmetic(self):
        m, k, ranges = block_indices(100, 0.5)
        assert (m, k) == (10, 5)
        assert ranges[1] == (20, 30)  # second block: indices 21..30, 1-based

    def test_tiny_alpha(self):
        m, k, _ = block_indices(100, 0.01)
        assert (m, k) == (1, 50)

    def test_k_zero_rejected(self):
        with pytest.raises(ChainError):
            block_indices(1, 0.5)


def block_sum_distribution(chain, m):
    """Per start state: dict (y, end_state) -> prob of the length-m block sum
    Y = f(X_1) + ... + f(X_m) started at X_1 = start, by a walk over a dict
    of (sum, state) keys, each partial sum rounded to 12 decimals: the
    oracle `_block_law` is held to."""
    S = chain.P.shape[0]
    out = []
    for start in range(S):
        dist = {(round(float(chain.f[start]), 12), start): 1.0}
        for _ in range(m - 1):
            nxt = {}
            for (y, s), p in dist.items():
                for t in range(S):
                    pt = chain.P[s, t]
                    if pt > 0.0:
                        key = (round(y + float(chain.f[t]), 12), t)
                        nxt[key] = nxt.get(key, 0.0) + p * pt
            dist = nxt
        out.append(dist)
    return out


def dict_block_law(chain, m):
    """(ys, law) of `block_sum_distribution`, laid out as `_block_law`'s:
    ys the sorted sums, law[s, i, e] = P(sum ys[i], end state e | start
    s)."""
    per_start = block_sum_distribution(chain, m)
    S = chain.P.shape[0]
    ys = np.array(sorted({y for dist in per_start for y, _ in dist}))
    law = np.zeros((S, ys.size, S))
    for s, dist in enumerate(per_start):
        for (y, e), p in dist.items():
            law[s, np.searchsorted(ys, y), e] = p
    return ys, law


def off_lattice_chain():
    """three_state's matrix with a centred standard-normal f: the sums of
    two steps are not equally spaced."""
    P = three_state_chain().P
    f = np.random.default_rng(5).standard_normal(3)
    return MarkovChainSpec(states=[0, 1, 2], P=P, f=f - stationary_dist(P) @ f)


class TestBlockLaw:
    @pytest.mark.parametrize("m", [1, 2, 3, 9, 15, 39])
    @pytest.mark.parametrize("make", [
        lambda: two_state_chain(0.3, 0.3), lambda: two_state_chain(0.02, 0.1), three_state_chain,
        off_lattice_chain, lambda: two_state_chain(0.1, 0.1)],
        ids=["two_state(0.3,0.3)", "two_state(0.02,0.1)", "three_state", "off_lattice",
             "two_state(0.1,0.1)"])
    def test_pass_is_the_dict_walk(self, make, m):
        # the numpy pass gives the dict walk's sums and probabilities bit
        # for bit: each sum, rounded once as units, is the walk's rounded
        # at every step, and each probability is summed in the walk's order
        chain = make()
        ys, law, hop, units = _block_law(chain, m)
        want_ys, want_law = dict_block_law(chain, m)
        assert np.array_equal(ys, want_ys)
        assert np.array_equal(ys, units / 1e12)
        assert np.array_equal(law, want_law)
        assert np.array_equal(hop, np.linalg.matrix_power(chain.P, m + 1))

    def test_sums_do_not_depend_on_the_order_of_states(self):
        # at two_state(0.05, 0.9) the walk's rounding at every step splits
        # one sum of 100 steps into several keys, by the order of its
        # states: 674 keys for the 101 sums j f_0 + (100 - j) f_1.  The pass
        # rounds f once, so the sums are the 101 points of one lattice, and
        # the sampler doubles its tables: at n = 10^4, alpha = 0.5 one
        # uniform draws 4 blocks, where the split sums drew 1
        chain = two_state_chain(0.05, 0.9)
        units = _block_law(chain, 100)[3]
        assert dict_block_law(chain, 100)[0].size == 674
        assert units.size == 101
        assert np.diff(units, 2).max() == np.diff(units, 2).min() == 0
        _, info = mixing_tail_experiment(chain, 10 ** 4, 0.5, [1.0], 100, 3)
        assert info["blocks_per_draw"] > 1


    def test_sums_past_int64_units_are_refused(self):
        # two_state(1e-9, 0.9) has f = (3.3e-5, -3e4), about the largest
        # |f| a two-state chain passes the centring check with; its sums of
        # 200 steps reach 6e6, past the 2.3e6 (2^61 units of 1e-12) that the
        # pass takes
        chain = two_state_chain(1e-9, 0.9)
        assert np.abs(chain.f).max() == pytest.approx(3e4)
        with pytest.raises(ChainError):
            _block_law(chain, 200)

    def test_units_stay_in_int64(self):
        # n = 10^5, alpha = 0.1: m = 3, k = 16,666.  The ladder stops
        # doubling before its units could pass 2^62, at 32 blocks a draw
        # (2.9e18 units; 64 blocks would reach 5.8e18), and a completion
        # whose totals would pass 2^62 units integrates the last draw only
        chain = two_state_chain(1e-9, 0.9)
        m, k, _ = block_indices(10 ** 5, 0.1)
        ladder = _block_tables(chain, m, k)
        for units, _ in ladder:
            assert (np.diff(units) > 0).all() and np.abs(units).max() < 1 << 62
        _, info = mixing_tail_experiment(chain, 10 ** 5, 0.1, [0.5], 1000, 0)
        assert (info["blocks_per_draw"], info["draws_integrated"]) == (32, 1)


def exact_mismatch_probability(chain, m, k):
    """P(some block of k mismatches), by a forward pass over the S+1 cases
    of the coupling (the stationary start, then the previous block's end
    state) that carries the mass of "no mismatch so far": from case c a
    block matches with sum y at mass min(cond_c(y), marg(y)) and then ends
    in state e with probability cond_c(y, e) / cond_c(y)."""
    S = chain.P.shape[0]
    per_start = block_sum_distribution(chain, m)
    hop = np.linalg.matrix_power(chain.P, m + 1)
    starts = [chain.pi] + [hop[e] for e in range(S)]
    conds, cond_ys = [], []
    for start in starts:
        cond = {}
        for s in range(S):
            for key, p in per_start[s].items():
                cond[key] = cond.get(key, 0.0) + start[s] * p
        cond_y = {}
        for (y, _), p in cond.items():
            cond_y[y] = cond_y.get(y, 0.0) + p
        conds.append(cond)
        cond_ys.append(cond_y)
    marg = cond_ys[0]
    alive = np.zeros(S + 1)
    alive[0] = 1.0
    for _ in range(k):
        nxt = np.zeros(S + 1)
        for c in range(S + 1):
            for (y, e), p in conds[c].items():
                overlap = min(cond_ys[c][y], marg.get(y, 0.0))
                nxt[1 + e] += alive[c] * overlap * p / cond_ys[c][y]
        alive = nxt
    return 1.0 - float(alive.sum())


class TestBerbee:
    def test_iid_chain_never_mismatches(self):
        chain = two_state_chain(0.5, 0.5)
        rng = np.random.default_rng(0)
        res = berbee_couple(chain, 2, 5, 200, rng)
        assert not res.mismatch.any()
        assert np.array_equal(res.blocks, res.independent)

    def test_mismatch_bound(self):
        # the coupling hops between blocks by P^{m+1}, so each of the k - 1
        # later blocks mismatches with probability at most beta(m + 1); at
        # (0.3, 0.3), m = 5 the bound 9 beta(6) ~ 0.018 is far below 1
        for a, m in ((0.1, 1), (0.3, 5)):
            chain = two_state_chain(a, a)
            p, se = berbee_mismatch_probability(chain, m, 10, 20000, 3)
            bound = 9.0 * beta_coefficient(chain.P, m + 1)
            assert p <= bound + 3.0 * se

    # the three configurations of the mixing-blocks benchmark, and a slow
    # asymmetric chain: in a symmetric two-state chain both end states leave
    # the same match mass, so the law of the end state cannot show in the
    # mismatch probability, while at (0.02, 0.1) it moves it by many SE
    @pytest.mark.parametrize("chain, m, exact", [
        (two_state_chain(0.1, 0.1), 1, 0.968913),
        (two_state_chain(0.3, 0.3), 5, 0.0077991),
        (three_state_chain(), 3, 0.0134197),
        (two_state_chain(0.02, 0.1), 3, 0.7455327)],
        ids=["two_state(0.1,0.1)", "two_state(0.3,0.3)", "three_state",
             "two_state(0.02,0.1)"])
    def test_mismatch_probability_exact(self, chain, m, exact):
        p = exact_mismatch_probability(chain, m, 10)
        assert p == pytest.approx(exact, abs=5e-7)
        reps = 10 ** 5
        p_hat, _ = berbee_mismatch_probability(chain, m, 10, reps, 3)
        assert abs(p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / reps)

    def test_rejects_zero_reps(self):
        with pytest.raises(ChainError):
            berbee_mismatch_probability(two_state_chain(0.3, 0.3), 5, 10, 0, 3)

    def test_independent_copy_marginal(self):
        # enumerate the true block-sum law for m = 3 and compare against the
        # empirical law of the coupled independent copies
        chain = two_state_chain(0.1, 0.1)
        ys, law = _block_law(chain, 3)[:2]
        marg = dict(zip(ys.tolist(), (chain.pi @ law.sum(axis=2)).tolist()))
        # independent oracle: enumerate all length-3 state paths directly
        oracle = {}
        for path in itertools.product((0, 1), repeat=3):
            p = chain.pi[path[0]]
            for s, t in zip(path, path[1:]):
                p *= chain.P[s, t]
            y = round(float(sum(chain.f[list(path)])), 12)
            oracle[y] = oracle.get(y, 0.0) + p
        assert set(oracle) == set(marg)
        for y, p in oracle.items():
            assert marg[y] == pytest.approx(p, abs=1e-12)
        rng = np.random.default_rng(8)
        counts = {}
        reps = 4000
        for v in berbee_couple(chain, 3, 4, reps, rng).independent.ravel():
            key = round(float(v), 12)
            counts[key] = counts.get(key, 0) + 1
        total = 4 * reps
        for y, p in oracle.items():
            se = math.sqrt(p * (1 - p) / total)
            assert abs(counts.get(y, 0) / total - p) <= 5.0 * se + 1e-9

    @pytest.mark.parametrize("a, b", [(0.1, 0.1), (0.02, 0.1)])
    def test_independent_copies_uncorrelated(self, a, b):
        # the copies are i.i.d.: consecutive ones are uncorrelated, though
        # the chain's blocks are not.  The block sum has mean 0, so each rep
        # contributes the mean product of its k - 1 consecutive pairs, and
        # the reps are independent.  Copies drawn from the conditional
        # law's residual keep the right marginal but follow the chain
        chain = two_state_chain(a, b)
        reps = 2 * 10 ** 4
        y = berbee_couple(chain, 3, 10, reps, np.random.default_rng(12)).independent
        per_rep = (y[:, 1:] * y[:, :-1]).mean(axis=1)
        z = per_rep.mean() / (per_rep.std() / math.sqrt(reps))
        assert abs(z) <= 4.0, z


class TestCovarianceBound:
    def test_iid_and_constant_cases(self):
        chain = two_state_chain(0.5, 0.5)
        f = np.array([1.0, -1.0])
        lhs, rhs, _ = covariance_bound_check(chain, 3, f, f, 2.0)
        assert lhs < 1e-14
        lhs, _, _ = covariance_bound_check(chain, 3, np.ones(2), f, 2.0)
        assert lhs < 1e-14

    def test_random_sweep(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(40):
            S = int(rng.integers(2, 4))
            P = random_chain(rng, S)
            pi = stationary_dist(P)
            f = rng.standard_normal(S)
            g = rng.standard_normal(S)
            chain = MarkovChainSpec(states=list(range(S)), P=P, f=f - pi @ f)
            for n in range(1, 6):
                for p in (1.5, 2.0, 3.0):
                    lhs, rhs, ratio = covariance_bound_check(chain, n, f, g, p)
                    assert lhs <= rhs + 1e-12
                    checked += 1
        assert checked >= 600

    def test_rejects_bad_p(self):
        chain = two_state_chain(0.3, 0.3)
        with pytest.raises(ChainError):
            covariance_bound_check(chain, 1, chain.f, chain.f, 1.0)


class TestTau:
    def test_values(self):
        assert tau_n(0.0, 5, 100, 10) == 0.0
        # psi(m) = 1e-4, n = 1e4, k = 50:
        # tau^2 = 1e-4 + 1e4 * 1e-8 + 50 * 1e-2 = 0.5002
        assert tau_n(1e-4, 15, 10 ** 4, 50) ** 2 == pytest.approx(0.5002)

    def test_monotone_in_psi(self):
        vals = [tau_n(p, 5, 1000, 20) for p in (0.0, 1e-6, 1e-4, 1e-2)]
        assert vals == sorted(vals)


class TestChainSpec:
    def test_uncentered_observable_rejected(self):
        with pytest.raises(ChainError):
            MarkovChainSpec(states=[0, 1],
                            P=np.array([[0.7, 0.3], [0.4, 0.6]]),
                            f=np.array([1.0, 1.0]))


def lag_sum_variance(chain, n, alpha):
    """E S_n^2 from the stationary autocovariances c(d) and the number of
    selected index pairs at each lag d: an O(n) oracle that does not use the
    block law."""
    _, _, ranges = block_indices(n, alpha)
    mask = np.zeros(n)
    for s, e in ranges:
        mask[s:e] = 1.0
    w = np.correlate(mask, mask, mode="full")[n - 1:]
    max_lag = int(np.max(np.nonzero(w)[0]))
    pi, f = chain.pi, chain.f
    g = f.copy()
    c = [float(pi @ (f * g))]
    for _ in range(max_lag):
        g = chain.P @ g
        c.append(float(pi @ (f * g)))
    c = np.array(c)
    return float(w[0] * c[0] + 2.0 * np.dot(w[1:max_lag + 1], c[1:max_lag + 1]))


def walk_blocks(chain, g, start, m, blocks):
    """The exact law of (chain state at the start of block `blocks`, L)
    along `blocks` blocks of m selected indices, each followed by a gap of
    m, L the sum of the integer label g per state over the selected
    indices, from `start`, the law of the first block's start state: a
    forward pass over (chain state, L), one step of P at a time.  It uses
    neither the block law nor P^{m+1}.  Returns (L values, dist[state, L])."""
    g = np.asarray(g)
    lo = min(int(g.min()), 0) * m * blocks
    hi = max(int(g.max()), 0) * m * blocks
    dist = np.zeros((g.size, hi - lo + 1))
    dist[:, -lo] = start
    for i in range(2 * m * blocks):
        if i:
            dist = chain.P.T @ dist
        if i % (2 * m) < m:
            for s in range(g.size):
                # the range holds every reachable L, so nothing wraps
                dist[s] = np.roll(dist[s], g[s])
    return np.arange(lo, hi + 1), chain.P.T @ dist


def lattice_law(chain, g, n, alpha):
    """Exact law of L = sum of g(X_i) over the selected indices of the
    experiment's k blocks, from the stationary start (`walk_blocks`).
    Returns (L values, probs)."""
    m, k, _ = block_indices(n, alpha)
    ls, dist = walk_blocks(chain, g, chain.pi, m, k)
    return ls, dist.sum(axis=0)


def lattice_map(chain, g, steps, f=None):
    """(a, b) with S = a L + b for a sum S of f over `steps` selected
    indices: f, chain.f unless given, is affine in the label g."""
    f = chain.f if f is None else f
    i, j = np.argmax(g), np.argmin(g)
    a = (f[i] - f[j]) / (g[i] - g[j])
    return a, steps * (f[i] - a * g[i])


def exact_tails(chain, g, n, alpha, thresholds):
    """P(S_n > t) for each t, from the lattice law; a t within 1e-6 lattice
    units of a lattice point is refused, since float sums could fall on
    either side of it."""
    ls, probs = lattice_law(chain, g, n, alpha)
    m, k, _ = block_indices(n, alpha)
    a, b = lattice_map(chain, g, m * k)
    out = []
    for t in thresholds:
        cut = (t - b) / a
        assert abs(cut - round(cut)) > 1e-6, f"threshold {t} on a lattice point"
        out.append(math.fsum(probs[ls > cut]))
    return out


# the chains of the exact-law test, each with its integer label: visits to
# state 0 for a two-state chain, #0 - #2 for the 3-state chain
LATTICE_CHAINS = [(two_state_chain(0.3, 0.3), (1, 0)),
                  (two_state_chain(0.02, 0.1), (1, 0)),
                  (three_state_chain(), (1, 0, -1))]
LATTICE_IDS = ["two_state(0.3,0.3)", "two_state(0.02,0.1)", "three_state"]


class TestTailExperiment:
    @pytest.mark.parametrize("chain, n", [
        (two_state_chain(0.3, 0.3), 10 ** 4), (three_state_chain(), 2000),
        (two_state_chain(0.02, 0.1), 5000), (two_state_chain(0.3, 0.3), 2000)],
        ids=["two_state(0.3,0.3)-1e4", "three_state-2000",
             "two_state(0.02,0.1)-5000", "two_state(0.3,0.3)-2000"])
    @pytest.mark.parametrize("alpha", [0.25, 0.3, 0.5])
    def test_exact_variance_matches_lag_sum(self, chain, n, alpha):
        oracle = lag_sum_variance(chain, n, alpha)
        assert abs(exact_block_sum_variance(chain, n, alpha) / oracle - 1.0) <= 1e-11

    def test_lattice_law_matches_lag_sum(self):
        # the forward pass is itself an oracle; its variance agrees with the
        # autocovariance sum
        for chain, g in LATTICE_CHAINS:
            ls, probs = lattice_law(chain, g, 200, 0.3)
            m, k, _ = block_indices(200, 0.3)
            a, b = lattice_map(chain, g, m * k)
            sums = a * ls + b
            assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
            assert math.fsum(probs * sums) == pytest.approx(0.0, abs=1e-9)
            assert math.fsum(probs * sums ** 2) == pytest.approx(
                lag_sum_variance(chain, 200, 0.3), rel=1e-10)

    @pytest.mark.parametrize("chain, g", LATTICE_CHAINS, ids=LATTICE_IDS)
    def test_sampler_matches_exact_law(self, chain, g):
        # n = 200, alpha = 0.3: m = 4, k = 25.  The cuts are the lattice
        # points at ten quantiles of the exact law, from 0.05 to 0.95, and
        # each threshold sits halfway above its cut, so float rounding in
        # the sums cannot move a path across it
        n, alpha, paths = 200, 0.3, 10 ** 5
        ls, probs = lattice_law(chain, g, n, alpha)
        m, k, _ = block_indices(n, alpha)
        a, b = lattice_map(chain, g, m * k)
        cdf = np.cumsum(probs)
        cuts = sorted({int(ls[np.searchsorted(cdf, q)]) for q in np.linspace(0.05, 0.95, 10)})
        assert len(cuts) >= 8
        sums = simulate_block_sums(chain, n, alpha, paths, 4)
        for c in cuts:
            p = math.fsum(probs[ls > c])
            p_hat = np.count_nonzero(sums > a * (c + 0.5) + b) / paths
            assert abs(p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / paths), (c, p_hat, p)

    def test_exact_variance_matches_mc(self):
        chain = two_state_chain(0.3, 0.3)
        es2 = exact_block_sum_variance(chain, 2000, 0.3)
        sums = simulate_block_sums(chain, 2000, 0.3, 40000, 5)
        mc = float(np.mean(sums ** 2))
        se = float(np.std(sums ** 2)) / math.sqrt(sums.size)
        assert abs(mc - es2) < 4.0 * se

    def test_iid_chain_matches_gaussian(self):
        chain = two_state_chain(0.5, 0.5)
        rep, info = mixing_tail_experiment(chain, 4000, 0.25, [0.5, 1.0],
                                           40000, 6)
        # psi_bar is float-noise for the one-step-stationary chain, but the
        # k * sqrt(psi) term amplifies it; just check it is negligible
        assert info["tau_n"] < 0.01
        for row in rep.rows:
            assert abs(row.ratio - 1.0) < 0.1

    @pytest.mark.parametrize("n, alpha, builds, doublings", [
        (10 ** 4, 0.3, 1, 5), (5000, 0.5, 1, 2)], ids=["10000-0.3-1", "5000-0.5-1"])
    def test_block_law_built_once(self, monkeypatch, n, alpha, builds, doublings):
        # the certificate, the exact variance and the sampler share one block
        # law per (chain, m), also at n = 5000, alpha = 0.5, where m = 70:
        # its pass merges the cells of each of its m - 1 steps once.  The
        # sampler's doubled tables are built once too, though the sampler
        # and the info both ask for them: at m = 15, k = 333 the tables of
        # 2, 4, 8, 16 and 32 blocks (64 blocks take 961 totals, 1922
        # cells, past BLOCK_TABLE_CELLS); at m = 70, k = 35 those of 2 and 4
        # blocks (8 blocks take 561 totals, 1122 cells)
        calls, doubled = [], []
        real, real_double = mixing.distinct_cells, mixing.doubled

        def counted(cells):
            calls.append(cells.shape)
            return real(cells)

        def counted_double(*args):
            two = real_double(*args)
            if two is not None:
                doubled.append(two[0].shape)
            return two

        monkeypatch.setattr(mixing, "distinct_cells", counted)
        monkeypatch.setattr(mixing, "doubled", counted_double)
        mixing_tail_experiment(two_state_chain(0.3, 0.3), n, alpha, [0.5, 1.0], 1000, 0)
        m = block_indices(n, alpha)[0]
        assert len(calls) == builds * (m - 1), calls
        assert len(doubled) == doublings, doubled

    def test_block_constants_are_the_blocks(self):
        # the info's c1 and c2 are those of the experiment's m-step blocks,
        # also past m = 20: at n = 10^5, alpha = 0.3, m = 31
        chain = two_state_chain(0.3, 0.3)
        _, info = mixing_tail_experiment(chain, 10 ** 5, 0.3, [1.0], 200, 0)
        m = info["m"]
        assert m == 31
        cert = certify_chain(chain, max(m, 10), m)
        assert (info["c1"], info["c2"]) == (cert.c1, cert.c2)

    def test_stationary_law_solved_once(self, monkeypatch):
        # the chain solves pi when it is built; the mixing coefficients of
        # the experiment and of the covariance check reuse it
        chain = two_state_chain(0.3, 0.3)
        calls = []
        real = mixing.stationary_dist

        def counted(P):
            calls.append(P)
            return real(P)

        monkeypatch.setattr(mixing, "stationary_dist", counted)
        mixing_tail_experiment(chain, 10 ** 4, 0.3, [0.5, 1.0], 1000, 0)
        covariance_bound_check(chain, 3, chain.f, chain.f, 2.0)
        assert not calls

    def test_envelope_flag(self):
        chain = two_state_chain(0.3, 0.3)
        rep, info = mixing_tail_experiment(chain, 2000, 0.3, [0.5], 20000, 6)
        assert not info["envelope_defined"]
        assert "envelope_undefined" in rep.rows[0].flags


def counted_uniforms(monkeypatch):
    """The sizes of the batches of uniforms that the block-sum paths draw,
    in order, each chunk's generator hooked through `mixing.seeded_chunks`."""
    calls = []
    real = mixing.seeded_chunks

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def random(self, size):
            calls.append(size)
            return self.rng.random(size)

    def chunks(seed, total, size):
        for rng, count in real(seed, total, size):
            yield Counting(rng), count

    monkeypatch.setattr(mixing, "seeded_chunks", chunks)
    return calls


def suffix_blocks(chain, m, k):
    """(draws, blocks): how many of a k-block path's last draws the
    experiment integrates, and how many blocks they hold."""
    draws = _completion(chain, m, k)[0]
    plan = draw_plan(k, len(_block_tables(chain, m, k)))
    return draws, sum(1 << b for b in plan[len(plan) - draws:])


class TestCompletion:
    @pytest.mark.parametrize("chain, g, integrated",
                             [(*c, d) for c, d in zip(LATTICE_CHAINS, (13, 13, 35))],
                             ids=LATTICE_IDS)
    def test_completion_is_the_forward_pass(self, chain, g, integrated):
        # n = 10^4, alpha = 0.3: m = 15, k = 333.  Per start state, the
        # completion's tail at each total it holds equals that of a forward
        # pass over (chain state, L) along the suffix's blocks from that
        # state, to 1e-12, and its mass is 1 within 1e-12.  The two-state
        # chains integrate the whole plan, 13 draws (333 blocks), from every
        # start state; three_state integrates 35 of its 43 (273 blocks)
        n, alpha = 10 ** 4, 0.3
        m, k, _ = block_indices(n, alpha)
        draws, blocks = suffix_blocks(chain, m, k)
        plan = draw_plan(k, len(_block_tables(chain, m, k)))
        assert draws == integrated
        top, lo, step, unit, _, base = _completion(chain, m, k)[1]
        width = top[0].shape[1] - 1
        # per start state, the completion's totals and the mass from each on
        values = base + unit * (lo[:, None] + step * np.arange(width))
        tail = np.vstack(top)[:, :0:-1]
        S = chain.P.shape[0]
        assert np.abs(tail[:, 0] - 1.0).max() <= 1e-12
        # the completion sums f rounded to whole units of 1e-12
        # (`_block_law`), so the walk's totals sum the same f
        a, b = lattice_map(chain, g, m * blocks, np.rint(chain.f * 1e12) / 1e12)
        for s in range(S):
            ls, dist = walk_blocks(chain, g, np.eye(S)[s], m, blocks)
            totals, law = a * ls + b, dist.sum(axis=0)
            order = np.argsort(totals)
            totals, law = totals[order], law[order]
            above = np.concatenate((np.cumsum(law[::-1])[::-1], [0.0]))
            assert (law[np.abs(totals[:, None] - values[s]).min(axis=1) > 1e-9] == 0.0).all()
            # the walk's tail at each of the completion's totals, which lie
            # |a| apart
            want = above[np.searchsorted(totals, values[s] - abs(a) / 2)]
            assert np.abs(tail[s] - want).max() <= 1e-12, s
        # the info counts the draws taken and those integrated
        _, info = mixing_tail_experiment(chain, n, alpha, [1.0], 100, 0)
        assert (info["draws_per_path"], info["draws_integrated"]) == (len(plan) - draws, draws)

    @pytest.mark.parametrize("make, n, levels, integrated", [
        (lambda: two_state_chain(0.3, 0.3), 10 ** 4, [], 13),
        (three_state_chain, 10 ** 4, [3] * 8, 35),
        (three_state_chain, 2000, [], 10)],
        ids=["two_state(0.3,0.3)-10000", "three_state-10000", "three_state-2000"])
    def test_alias_tables_only_for_the_draws_taken(self, monkeypatch, make, n, levels,
                                                   integrated):
        # at the CLI defaults (n = 10^4, alpha = 0.3) a path integrates all
        # 13 of its draws and builds no alias tables, as does three_state at
        # n = 2000 with its 10.  three_state at n = 10^4 draws the first 8
        # of its 43 tables, all of 8 blocks (level 3), and integrates the
        # other 35, so only level 3 gets alias tables, once per chain
        calls = []
        real = mixing.alias_tables

        def counted(p):
            calls.append(p.shape)
            return real(p)

        monkeypatch.setattr(mixing, "alias_tables", counted)
        chain = make()
        for seed in (0, 1):
            _, info = mixing_tail_experiment(chain, n, 0.3, [1.0], 1000, seed)
        m, k, _ = block_indices(n, 0.3)
        ladder = _block_tables(chain, m, k)
        plan = draw_plan(k, len(ladder))
        assert plan[:len(levels)] == levels
        assert len(plan) == len(levels) + integrated
        assert (info["draws_per_path"], info["draws_integrated"]) == (len(levels), integrated)
        S = chain.P.shape[0]
        assert calls == [(S, ladder[b][0].size * S) for b in sorted(set(levels))]

    def test_whole_plan_takes_one_uniform(self, monkeypatch, tmp_path):
        # at the CLI defaults every one of a path's 13 draws is integrated,
        # so each chunk takes one uniform per path, its stationary start
        # state, and the run's info JSON reads draws_per_path 0
        calls = counted_uniforms(monkeypatch)
        budget = MIX_CHUNK + 100
        assert main(["--out", str(tmp_path), "mixing", "--x", "1", "--budget", str(budget)]) == 0
        assert calls == [MIX_CHUNK, 100]
        info = json.loads((tmp_path / "mixing_n10000_seed0_info.json").read_text())
        assert (info["draws_per_path"], info["draws_integrated"]) == (0, 13)

    def test_completion_stops_at_the_cell_bound(self):
        # the totals of the completion's draws from each start state take at
        # most COMPLETION_CELLS lattice points, their span in the steps of
        # a table's totals plus one, and one more draw would pass that.
        # Each table's least and greatest total from s into t compose
        # backwards, from the last draw: lo_s <- min over t of lo_{s,t} +
        # lo_t, and hi_s likewise.  At n = 10^4 three_state integrates 35
        # of its 43 draws, over 8,069 points; 36 would take 8,309.  (The
        # two-state chains integrate their whole plan there, 4,995 points.)
        chain = three_state_chain()
        m, k, _ = block_indices(10 ** 4, 0.3)
        draws = _completion(chain, m, k)[0]
        ladder = _block_tables(chain, m, k)
        plan = draw_plan(k, len(ladder))

        def width(d):
            lo = hi = np.zeros(chain.P.shape[0])
            for b in plan[:len(plan) - d - 1:-1]:
                joint = ladder[b][1]
                i = np.arange(joint.shape[1])[:, None]
                lo = (np.where(joint > 0.0, i, np.inf).min(axis=1) + lo).min(axis=1)
                hi = (np.where(joint > 0.0, i, -np.inf).max(axis=1) + hi).max(axis=1)
            return int((hi - lo).max()) + 1

        assert width(draws) <= COMPLETION_CELLS < width(draws + 1)


def composed_tables(chain, m, levels):
    """The tables of 1, 2, 4, ... blocks by brute force, each as per start
    state the outcomes' arrays (total, next start, prob), one outcome per
    (total, next start): the first from `block_sum_distribution` and
    P^{m+1}, each next one by summing the products of every pair of
    outcomes that chain through a middle start state, with the pair's total
    rounded to 12 decimals."""
    S = chain.P.shape[0]
    hop = np.linalg.matrix_power(chain.P, m + 1)
    table = []
    for dist in block_sum_distribution(chain, m):
        row = {}
        for (y, e), p in dist.items():
            for t in range(S):
                row[(y, t)] = row.get((y, t), 0.0) + p * hop[e, t]
        ys, ts, ps = zip(*((y, t, p) for (y, t), p in row.items()))
        table.append((np.array(ys), np.array(ts), np.array(ps)))
    out = [table]
    for _ in range(levels - 1):
        doubled = []
        for y1, r1, p1 in table:
            pairs = [(np.add.outer(y1[r1 == r], y2),
                      np.broadcast_to(t2, (np.sum(r1 == r), t2.size)),
                      np.multiply.outer(p1[r1 == r], p2))
                     for r, (y2, t2, p2) in enumerate(table)]
            y, t, p = (np.concatenate([a.ravel() for a in arrays]) for arrays in zip(*pairs))
            totals, total = np.unique(np.round(y, 12), return_inverse=True)
            cells, cell = np.unique(total * S + t, return_inverse=True)
            doubled.append((totals[cells // S], cells % S, np.bincount(cell, weights=p)))
        table = doubled
        out.append(table)
    return out


def dense(table, values):
    """A `composed_tables` table as an array [s, i, t] over the totals
    `values`."""
    S = len(table)
    out = np.zeros((S, values.size, S))
    for s, (y, t, p) in enumerate(table):
        out[s, np.searchsorted(values, y), t] = p
    return out


# the unit roundoff of a float64
EPS = 2.0 ** -53


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u): the relative error of a sum of n
    + 1 nonnegative floats in any order, or of n rounded operations in
    sequence (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, sec. 3.1)."""
    return n * EPS / (1.0 - n * EPS)


class TestDoubledTables:
    @pytest.mark.parametrize("chain, g", LATTICE_CHAINS, ids=LATTICE_IDS)
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_tables_are_the_composed_block_law(self, chain, g, m):
        self.check_ladder(chain, m, 1 << 10)

    @pytest.mark.parametrize("chain, m, k", [
        (two_state_chain(0.3, 0.3), 15, 333), (three_state_chain(), 9, 111)],
        ids=["two_state(0.3,0.3)", "three_state"])
    def test_benchmark_tables_are_the_composed_block_law(self, chain, m, k):
        # the mixing-blocks benchmark's chains at the (m, k) of its runs,
        # n = 10^4 and n = 2000 at alpha = 0.3
        self.check_ladder(chain, m, k)

    @staticmethod
    def check_ladder(chain, m, k):
        # every doubling up to the cell bound matches the brute-force
        # composition; a lattice chain's 2^b-block totals take
        # 2^b (Y - 1) + 1 values, where one block's take Y, and in units
        # they are the pair sums of the level below, exactly; as floats,
        # the rounded pair sums, bit for bit
        S = chain.P.shape[0]
        ladder = _block_tables(chain, m, k)
        composed = composed_tables(chain, m, len(ladder))
        Y = ladder[0][0].size
        for b, ((units, joint), table) in enumerate(zip(ladder, composed)):
            values = units / 1e12
            assert values.size == (Y - 1 << b) + 1
            assert values.size * S <= BLOCK_TABLE_CELLS
            if b:
                below = ladder[b - 1][0]
                assert np.array_equal(units, np.unique(np.add.outer(below, below))), b
                below = below / 1e12
                assert np.array_equal(
                    values, np.unique(np.round(np.add.outer(below, below), 12))), b
            keys = np.unique(np.concatenate([y for y, _, _ in table]))
            assert np.allclose(values, keys, rtol=0.0, atol=1e-12)
            assert np.abs(joint - dense(table, keys)).max() <= 1e-15, b
            # Row mass.  Say every row of the table below has mass within
            # e of 1.  Doubled row s has the mass sum_r q(s, r) M(r) before
            # rounding, where q(s, r), the mass of row s that moves to
            # start r, adds up to M(s); so it lies within (1 + e)^2 - 1 of
            # 1.  Each doubled cell is a sum of at most Y' products of
            # nonnegative floats along a convolution, Y' the width of the
            # table below, then a sum over S middle states: every term
            # takes at most Y' + S - 1 roundings, so rounding moves each
            # cell, and the row, by at most gamma(Y' + S - 1) of its exact
            # value.  The one-block table is held to a fixed 1e-14, and from
            # that e the bound about doubles per doubling and gains the
            # rounding of each, so no level's bound reads a measured error.
            # `math.fsum` rounds a row's mass once, so a measured error is
            # within 2 EPS of the exact one.
            error = max(abs(math.fsum(row) - 1.0) for row in joint.reshape(S, -1))
            if b:
                width = ladder[b - 1][0].size
                bound = (1.0 + bound) ** 2 * (1.0 + gamma(width + S - 1)) - 1.0
            else:
                bound = 1e-14
            assert error <= bound + 2.0 * EPS, (b, error, bound)
        # the next doubling would pass the cell bound
        assert ((Y - 1 << len(ladder)) + 1) * S > BLOCK_TABLE_CELLS

    def test_chain_off_a_lattice_draws_one_block_per_uniform(self):
        # a centred standard-normal f: the totals of two steps are not
        # equally spaced, so no table is doubled, and a path of k blocks
        # takes k draws, of which the experiment integrates only the last;
        # its totals still follow the law of k = 8 blocks composed by brute
        # force.  n = 32, alpha = 0.25: m = 2, k = 8
        chain = off_lattice_chain()
        n, alpha, paths = 32, 0.25, 10 ** 5
        m, k, _ = block_indices(n, alpha)
        assert (m, k) == (2, 8)
        assert len(_block_tables(chain, m, k)) == 1
        _, info = mixing_tail_experiment(chain, n, alpha, [1.0], 100, 0)
        assert info["blocks_per_draw"] == 1
        assert (info["draws_per_path"], info["draws_integrated"]) == (k - 1, 1)
        # the stationary law of the total of 8 blocks
        table = composed_tables(chain, m, 4)[3]
        values, cell = np.unique(np.concatenate([y for y, _, _ in table]), return_inverse=True)
        probs = np.bincount(cell, weights=np.concatenate(
            [chain.pi[s] * p for s, (_, _, p) in enumerate(table)]))
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
        # thresholds halfway between adjacent totals at ten quantiles, far
        # from any total, so float rounding in the sums cannot cross them
        cdf = np.cumsum(probs)
        cuts = sorted({int(np.searchsorted(cdf, q)) for q in np.linspace(0.05, 0.95, 10)})
        assert len(cuts) >= 8
        sums = simulate_block_sums(chain, n, alpha, paths, 4)
        for i in cuts:
            assert values[i + 1] - values[i] > 1e-9
            p = math.fsum(probs[i + 1:])
            p_hat = np.count_nonzero(sums > (values[i] + values[i + 1]) / 2.0) / paths
            assert abs(p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / paths), (i, p_hat, p)

    def test_doubling_stops_at_k(self):
        # no table of more blocks than the path has; a larger k extends the
        # tables kept on the chain
        chain = two_state_chain(0.3, 0.3)
        assert len(_block_tables(chain, 2, 1)) == 1
        assert len(_block_tables(chain, 2, 5)) == 3
        assert len(_block_tables(chain, 2, 8)) == 4
        assert len(chain._block_tables[2]) == 4
        assert len(_block_tables(chain, 2, 7)) == 3

    def test_draw_plan(self):
        for k in range(1, 200):
            for levels in range(1, k.bit_length() + 1):
                plan = draw_plan(k, levels)
                assert sum(1 << b for b in plan) == k
                assert plan == sorted(plan, reverse=True)
                assert len(plan) == (k >> levels - 1) + bin(k % (1 << levels - 1)).count("1")

    def test_one_uniform_per_draw(self, monkeypatch):
        # n = 200, alpha = 0.3: m = 4 and k = 25 = 16 + 8 + 1 blocks, so
        # each chunk takes four uniforms per path: the start and three draws
        calls = counted_uniforms(monkeypatch)
        simulate_block_sums(two_state_chain(0.3, 0.3), 200, 0.3, MIX_CHUNK + 100, 4)
        assert calls == [MIX_CHUNK] * 4 + [100] * 4
