import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdmart import models
from mdmart.alias import BLOCK_TABLE_CELLS, draw_plan
from mdmart.models import (ATOL, BLOCK_CELLS, DEFAULT_GRID, Certificate,
                           CertificationError, ConditionalLaw,
                           MartingaleModel, ModelError,
                           _BlockOutcomes, block_steps, certify,
                           check_sakhanenko, make_heavy_left, make_rademacher,
                           make_regime_switch, verify_certificate)
from mdmart.montecarlo import enumerate_terminal, estimate_tail_plain
from mdmart.tilt import choose_tilt


def two_point(a, b):
    # mean-zero two-point law with positive atom a and negative atom b
    p = -b / (a - b)
    return ConditionalLaw(((a, p), (b, 1.0 - p)))


def check_bernstein(law, k, H):
    """Conditional Bernstein condition |E v^k| <= (1/2) k! H^{k-2} E v^2."""
    moment = math.fsum(p * v ** k for v, p in law.atoms)
    return abs(moment) <= 0.5 * math.factorial(k) * H ** (k - 2) * law.second_moment()


@st.composite
def centered_laws(draw):
    a = draw(st.floats(0.1, 10.0))
    b = draw(st.floats(-10.0, -0.1))
    return two_point(a, b)


class TestConditionalLaw:
    def test_invariants_rejected(self):
        with pytest.raises(ModelError):
            ConditionalLaw(((1.0, 1.0),))  # single atom
        with pytest.raises(ModelError):
            ConditionalLaw(((1.0, 0.5), (1.0, 0.5)))  # duplicate values
        with pytest.raises(ModelError):
            ConditionalLaw(((1.0, 0.6), (-1.0, 0.6)))  # probs don't sum to 1
        with pytest.raises(ModelError):
            ConditionalLaw(((2.0, 0.5), (-1.0, 0.5)))  # nonzero mean

    @given(centered_laws())
    def test_mean_zero(self, law):
        assert abs(math.fsum(p * v for v, p in law.atoms)) <= ATOL

    def test_scaling(self):
        law = two_point(2.0, -0.5)
        scaled = law.scaled(0.1)
        assert scaled.second_moment() == pytest.approx(0.01 * law.second_moment())


class TestRademacher:
    def test_basic_law(self):
        m = make_rademacher(1)
        law = m.law_at(m.initial_state())
        assert set(law.atoms) == {(1.0, 0.5), (-1.0, 0.5)}

    def test_scaled_law_n4(self):
        m = make_rademacher(4)
        law = m.scaled_laws[0]
        assert sorted(v for v, _ in law.atoms) == [-0.5, 0.5]
        assert law.second_moment() == pytest.approx(0.25)

    def test_certificate_bounded_increment_rule(self):
        # |eta| <= 1 gives E|eta|^3 e^{K eta+} <= e^K E eta^2, i.e. the
        # moment condition with K = 1, L = e; verified by exact finite sums
        law = make_rademacher(4).law_at(None)
        ok, log_lhs, log_rhs = check_sakhanenko(law, 1.0, 1.0, math.e)
        assert ok
        assert log_lhs == pytest.approx(math.log(0.5 * math.e + 0.5))
        assert log_rhs == pytest.approx(1.0)

    def test_certify_variance(self):
        cert = certify(make_rademacher(100))
        assert cert.N == 0.0
        assert cert.eps_n == max(cert.K, cert.L) / 10.0
        assert verify_certificate(make_rademacher(100), cert)

    def test_rejects_zero_horizon(self):
        with pytest.raises(ModelError):
            make_rademacher(0)


class TestHeavyLeft:
    def test_moment_matching(self):
        m = make_heavy_left(100, 0.5, 8)
        law = m.law_at(None)
        assert abs(math.fsum(p * v for v, p in law.atoms)) <= ATOL
        assert law.second_moment() == pytest.approx(1.0, abs=1e-12)
        # scaled variance is 1/n
        assert m.scaled_laws[0].second_moment() == pytest.approx(0.01)

    def test_one_sidedness(self):
        m = make_heavy_left(100, 0.5, 8)
        cert = certify(m)
        law = m.law_at(None)
        ok_one, _, _ = check_sakhanenko(law, 0.5, cert.K, cert.L)
        ok_two, _, _ = check_sakhanenko(law, 0.5, cert.K, cert.L, two_sided=True)
        assert ok_one and not ok_two

    def test_bernstein_violated(self):
        law = make_heavy_left(100, 0.5, 8).law_at(None)
        for H in (1.0, 10.0, 100.0, 1000.0):
            assert not check_bernstein(law, 6, H)

    def test_exponential_moment_huge(self):
        # the two-sided moment E|v|^{2+rho} e^{K|v|} at the certified K
        m = make_heavy_left(100, 0.5, 8)
        cert = certify(m)
        log_moment = m.law_at(None).log_sakhanenko_moment(0.5, cert.K, two_sided=True)
        assert log_moment > math.log(1e12)

    def test_rejects_bad_params(self):
        with pytest.raises(ModelError):
            make_heavy_left(100, 1.5, 8)
        with pytest.raises(ModelError):
            make_heavy_left(100, 0.5, 1)


class TestRegimeSwitch:
    def test_gamma_zero_degenerates(self):
        m = make_regime_switch(50, 0.0)
        law = m.law_at(m.initial_state())
        assert set(law.atoms) == {(1.0, 0.5), (-1.0, 0.5)}
        assert certify(m).N == 0.0

    def test_variance_deviation_bound(self):
        gamma = 0.3
        m = make_regime_switch(100, gamma)
        dev = m.variance_deviation()
        declared = (1.0 + gamma) ** 2 - (1.0 - gamma) ** 2  # = 4 gamma
        assert 0.0 < dev <= declared
        assert certify(m).N ** 2 == pytest.approx(dev)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ModelError):
            make_regime_switch(10, 0.7)


class TestCertify:
    def test_failure_carries_witness(self):
        law = two_point(2.0, -0.5)

        class OneLaw(make_rademacher(4).__class__):
            pass

        m = make_rademacher(4)
        m._law = law
        # a grid so coarse that no (K, L) pair can absorb the exponential
        # moment of the +2 atom
        with pytest.raises(CertificationError) as exc:
            certify(m, grid=(64.0,))
        assert exc.value.witness_law is not None
        assert exc.value.log_lhs > exc.value.log_rhs

    @staticmethod
    def searched(model, grid=DEFAULT_GRID):
        """What `certify` gives when it calls `check_sakhanenko` afresh for
        every candidate and law: the Certificate, or the witness (law,
        log_lhs, log_rhs) of the CertificationError."""
        laws = list(model.reachable_laws())
        worst = None
        for _, L, K in sorted((max(K, L), L, K) for K in grid for L in grid):
            for law in laws:
                ok, log_lhs, log_rhs = check_sakhanenko(law, model.rho, K, L)
                if not ok:
                    if worst is None or log_lhs - log_rhs > worst[1] - worst[2]:
                        worst = (law, log_lhs, log_rhs)
                    break
            else:
                return Certificate(rho=model.rho, K=K, L=L, n=model.n,
                                   N=math.sqrt(model.variance_deviation()))
        return worst

    @pytest.mark.parametrize("model", [
        make_heavy_left(400, 0.5), make_heavy_left(400, 1.0),
        make_heavy_left(1600), make_regime_switch(400, 0.3),
        make_rademacher(400, 0.7)], ids=lambda m: f"{m.name}-rho{m.rho}")
    def test_certificate_is_the_full_search(self, model):
        assert certify(model) == self.searched(model)

    @pytest.mark.parametrize("grid", [(64.0,), DEFAULT_GRID[:4]])
    def test_witness_is_the_full_search(self, grid):
        model = make_heavy_left(400)
        with pytest.raises(CertificationError) as exc:
            certify(model, grid=grid)
        witness = (exc.value.witness_law, exc.value.log_lhs, exc.value.log_rhs)
        assert witness == self.searched(model, grid)

    def test_certificate_json(self):
        import json
        cert = certify(make_rademacher(100))
        doc = json.loads(cert.to_json())
        assert doc["eps_n"] == cert.eps_n and doc["delta_n"] == cert.delta_n
        assert doc["delta_n_from_L"] == cert.L / 10.0


class TestSamplePath:
    def test_deterministic_given_seed(self):
        m = make_regime_switch(40, 0.3)
        b1 = m.simulate_terminal(64, np.random.default_rng(9), 0.7)
        b2 = m.simulate_terminal(64, np.random.default_rng(9), 0.7)
        assert np.array_equal(b1.x, b2.x)
        assert np.array_equal(b1.log_weight, b2.log_weight)

    def test_all_plus_path_value(self):
        # forced: ten up-moves give X_10 = sqrt(10)
        m = make_rademacher(10)
        assert 10 * m.scaled_laws[0].values.max() == pytest.approx(math.sqrt(10))

    @settings(deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_terminal_matches_path_space(self, seed):
        # vectorized sampler and path sampler agree on the support lattice
        m = make_rademacher(9)
        batch = m.simulate_terminal(4, np.random.default_rng(seed))
        lattice = (2 * np.arange(10) - 9) / 3.0
        assert np.all(np.isin(np.round(batch.x, 9), np.round(lattice, 9)))

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("x", [0.0, 3.0])
    def test_rademacher_counts_are_one_binomial(self, x, seed):
        # a two-atom law's counts are one binomial draw, so X_n is
        # (2 Bin(n, p_plus) - n)/sqrt(n) bit for bit from the same stream
        n, size = 400, 5000
        m = make_rademacher(n)
        lam = choose_tilt(m, x).lam
        assert (lam > 0.0) == (x > 0.0)
        a = 1.0 / math.sqrt(n)
        p_plus = 1.0 / (1.0 + math.exp(-2.0 * lam * a))
        s = np.random.default_rng(seed).binomial(n, p_plus, size=size)
        batch = m.simulate_terminal(size, np.random.default_rng(seed), lam)
        assert batch.x.tobytes() == ((2.0 * s - n) * a).tobytes()

    @pytest.mark.parametrize("x", [1.5, 2.0])
    def test_counts_with_underflowed_atoms(self, x):
        # at n=1600 and the tilt for x, heavy_left's two deepest atoms have
        # tilted probability 0: no division by a zero suffix sum, no draw of
        # either atom, and the exact tilted mean and variance of X_n.  At
        # x=1.5, 1 minus a running sum of the probabilities falls below the
        # trailing ones, so only suffix sums keep every ratio in [0, 1]
        n, size = 1600, 1 << 16
        m = make_heavy_left(n)
        tl = m.tilted_laws(choose_tilt(m, x).lam)[0]
        v, p = tl.values, tl.probs
        assert np.count_nonzero(p == 0.0) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            xs = m.simulate_terminal(size, np.random.default_rng(7), tl.lam).x
        # one draw of a zero-probability atom would put X_n at or below this
        assert xs.min() > (n - 1) * v.max() + v[p == 0.0].max()
        mu = math.fsum((p * v).tolist())
        var = math.fsum((p * (v - mu) ** 2).tolist())
        m4 = math.fsum((p * (v - mu) ** 4).tolist())
        # central moments of a sum of n i.i.d. steps
        var_x, m4_x = n * var, n * m4 + 3.0 * n * (n - 1) * var * var
        assert abs(xs.mean() - n * mu) <= 4.0 * math.sqrt(var_x / size)
        assert abs(xs.var() - var_x) <= 4.0 * math.sqrt((m4_x - var_x ** 2) / size)


class SignSwitch(MartingaleModel):
    """The law of the next difference depends on the sign of the last one,
    and after a rise it has three atoms: exercises padded table rows."""

    LAWS = {0: ConditionalLaw(((1.0, 0.5), (-1.0, 0.5))),
            1: ConditionalLaw(((2.0, 0.2), (0.5, 0.4), (-1.5, 0.4))),
            -1: ConditionalLaw(((3.0, 0.25), (-1.0, 0.75)))}

    def __init__(self, n):
        super().__init__("sign_switch", n, 1.0)

    def initial_state(self):
        return 0

    def law_at(self, state):
        return self.LAWS[state]

    def next_state(self, state, eta):
        return 1 if eta > 0 else -1


def by_value(keys, cols, tol=1e-9):
    """Sum each column over the rows whose keys all agree within tol, so
    sums of the same atoms taken in another order meet: (the keys of each
    group, the column sums), sorted by key."""
    keys = [np.asarray(k, dtype=float) for k in keys]
    ids = np.zeros(keys[0].size, dtype=np.intp)
    for k in keys:
        order = np.lexsort((k, ids))
        new = np.ones(k.size, dtype=bool)
        new[1:] = (np.diff(ids[order]) != 0) | (np.diff(k[order]) > tol)
        ids[order] = np.cumsum(new) - 1
    first = np.unique(ids, return_index=True)[1]
    return ([k[first] for k in keys],
            [np.bincount(ids, weights=np.asarray(c, dtype=float)) for c in cols])


def exact_terminal_law(model, lam):
    """The values of X_n with, per value, its probability under P, its
    probability under P_lam and E_lam[w^2; X_n = x] for the importance
    weight w = exp(-lam X_n + Psi_n).  A forward pass over (state, X): the
    path enumeration with the paths into one (state, X) merged, so it
    reaches horizons that enumeration cannot."""
    t = model.table
    base, tilted = model.tilted_laws(0.0), model.tilted_laws(lam)
    dist = {(0, 0.0): (1.0, 1.0, 1.0)}  # P, P_lam, E_lam[exp(2 Psi_k)]
    for _ in range(model.n):
        nxt = {}
        for (s, x), (p, q, m) in dist.items():
            law = t.law_of[s]
            grow = math.exp(2.0 * tilted[law].step_log_mgf)
            for a, ((v, pa), (_, qa)) in enumerate(zip(base[law].atoms,
                                                        tilted[law].atoms)):
                key = (int(t.T[s, a]), round(x + v, 12))
                old = nxt.get(key, (0.0, 0.0, 0.0))
                nxt[key] = (old[0] + p * pa, old[1] + q * qa, old[2] + m * qa * grow)
        dist = nxt
    xs = np.array([x for _, x in dist])
    p, q, m = (np.array(c) for c in zip(*dist.values()))
    # E_lam[w^2; path into (state, X)] = m e^{-2 lam X}
    m2 = [math.exp(math.log(a) - 2.0 * lam * x) if b > 0.0 else math.nan
          for a, b, x in zip(m, q, xs)]
    (values,), sums = by_value([xs], [p, q, m2])
    return values, *sums


# the state-dependent models at horizons below the block length B, equal to
# it, B + 2 and 2B + 3, so both the block tables and the leftover one are
# drawn from; regime_switch also at 3B and 4B + 3, whose paths draw from the
# tables of one and of two blocks, or of two blocks and the leftover steps
_B_RS = block_steps(*make_regime_switch(1, 0.3).table.T.shape)
_B_SS = block_steps(*SignSwitch(1).table.T.shape)
SAMPLER_MODELS = {"regime_switch": make_regime_switch(10, 0.3),
                  "heavy_left": make_heavy_left(3), "sign_switch": SignSwitch(6),
                  "rademacher": make_rademacher(12)}
SAMPLER_MODELS.update({f"{m.name}-n{m.n}": m for m in (
    make_regime_switch(3, 0.3), make_regime_switch(_B_RS, 0.3),
    make_regime_switch(2 * _B_RS + 3, 0.3), make_regime_switch(3 * _B_RS, 0.3),
    make_regime_switch(4 * _B_RS + 3, 0.3), SignSwitch(_B_SS),
    SignSwitch(2 * _B_SS + 3))})


def row0_law(tab, lam):
    """(X, log weight, P_lam) of the cells of row 0 of a `BlockTable`: the
    law of the table's steps from state 0."""
    row0 = np.flatnonzero(tab.prob[:tab.width] > 0.0)
    dx = tab.dx[row0]
    return dx, -lam * dx + tab.dpsi[row0], tab.prob[row0]


class CountingRng:
    """A generator that records the size of every `random` call."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), []

    def random(self, size):
        self.calls.append(size)
        return self.rng.random(size)


class TestStateTable:
    def test_regime_switch_machine(self):
        # finitely many states, the same at every horizon
        m = make_regime_switch(400, 0.3)
        assert len(m.table.states) == 95
        assert len(m.table.laws) == 3
        assert list(m.reachable_laws()) == list(m.table.laws)
        assert make_regime_switch(10, 0.3).table.states == m.table.states
        assert make_heavy_left(10).iid and not m.iid
        assert SignSwitch(5).table.T.tolist() == [[1, 2, 2], [1, 1, 2], [1, 2, 2]]

    def test_variance_deviation_by_enumeration(self):
        # the forward pass against max |sum_i (E[eta_i^2 | F_{i-1}] - 1)|
        # over every path, on a model where paths into one state differ
        def worst(m, step, state, total):
            if step == m.n:
                return abs(total)
            law = m.law_at(state)
            return max(worst(m, step + 1, m.next_state(state, v),
                             total + law.second_moment() - 1.0)
                       for v, _ in law.atoms)

        for m in (SignSwitch(1), SignSwitch(7), make_regime_switch(9, 0.3)):
            assert m.variance_deviation() == pytest.approx(
                worst(m, 0, m.initial_state(), 0.0), rel=1e-12, abs=1e-12)

    def test_one_state_deviation_is_the_forward_pass(self):
        # the one-state shortcut must make the very float sum of the forward
        # pass, which a two-state table with the same law at both states
        # runs; E eta^2 - 1 = -0.4 is inexact in binary, so n (E eta^2 - 1)
        # would round differently
        law = two_point(2.0, -0.3)

        class Cycle(MartingaleModel):
            def __init__(self, n, period):
                super().__init__("cycle", n, 1.0)
                self.period = period

            def initial_state(self):
                return 0

            def law_at(self, state):
                return law

            def next_state(self, state, eta):
                return (state + 1) % self.period

        one, two = Cycle(1600, 1), Cycle(1600, 2)
        assert len(one.table.states) == 1 and len(two.table.states) == 2
        assert one.variance_deviation() == two.variance_deviation()

    def test_gamma_zero_still_falls_back(self):
        # one law but three states (the sign is still tracked): not i.i.d.
        m = make_regime_switch(50, 0.0)
        assert len(m.table.states) == 3 and len(m.table.laws) == 1
        sel = choose_tilt(m, 1.0)
        assert sel.method == "fallback" and not sel.converged

    @pytest.mark.parametrize("lam", [0.0, 0.8])
    @pytest.mark.parametrize("model", SAMPLER_MODELS.values(), ids=SAMPLER_MODELS.keys())
    def test_sampler_law_matches_enumeration(self, model, lam):
        # importance-weighted frequency of each value of X_n against its
        # exact probability, within 4 of the estimator's exact SEs from the
        # exact tilted law.  Values expected fewer than 10 times under P_lam
        # are pooled into one bin, where a normal SE means something; values
        # whose tilted probability underflows to 0 cannot be drawn
        values, exact, mass, m2 = exact_terminal_law(model, lam)
        size = 1 << 15
        batch = model.simulate_terminal(size, np.random.default_rng(4), lam)
        # each drawn X_n is one of the exact values, up to float sum order
        i = np.clip(np.searchsorted(values, batch.x), 1, values.size - 1)
        i -= batch.x - values[i - 1] < values[i] - batch.x
        assert np.abs(batch.x - values[i]).max() < 1e-9
        w = np.exp(batch.log_weight)
        drawable = ~np.isnan(m2)
        assert drawable[i].all()
        assert math.fsum(exact[drawable]) > 1.0 - 1e-6
        rare = drawable & (size * mass < 10.0)
        bins = [[j] for j in np.flatnonzero(drawable & ~rare)] + [np.flatnonzero(rare)]
        assert len(bins) >= 4
        for js in bins:
            est = float(w[np.isin(i, js)].sum()) / size
            p = math.fsum(exact[js])
            se = math.sqrt(max(math.fsum(m2[js]) - p * p, 0.0) / size)
            assert abs(est - p) <= 4.0 * se, (values[js][:3], est, p, se)

    @pytest.mark.parametrize("lam", [0.0, 0.8])
    @pytest.mark.parametrize("model", [make_regime_switch(9, 0.3), SignSwitch(7),
                                       make_heavy_left(3), make_rademacher(12)],
                             ids=["regime_switch", "sign_switch", "heavy_left",
                                  "rademacher"])
    def test_exact_law_is_the_enumeration(self, model, lam):
        # the forward pass the sampler test holds the sampler to, against
        # the brute-force path enumeration
        values, *got = exact_terminal_law(model, lam)
        q, x, lw = enumerate_terminal(model, lam)
        p = enumerate_terminal(model, 0.0)[0]
        m2 = [math.exp(math.log(a) + 2.0 * b) if a > 0.0 else math.nan
              for a, b in zip(q, lw)]
        (want_values,), want = by_value([x], [p, q, m2])
        assert np.allclose(values, want_values, rtol=0.0, atol=1e-9)
        # probabilities to 1e-12; the second moments are exponentials of
        # sums taken in another order, so to 1e-10
        for g, w, rtol in zip(got, want, (1e-12, 1e-12, 1e-10)):
            assert np.allclose(g, w, rtol=rtol, atol=0.0, equal_nan=True)

    @pytest.mark.parametrize("lam", [0.0, 0.8])
    @pytest.mark.parametrize("make, levels", [
        (lambda n: make_regime_switch(n, 0.3), 2),
        (lambda n: make_regime_switch(n, 0.45), 2), (SignSwitch, 1)],
        ids=["regime_switch", "regime_switch-0.45", "sign_switch"])
    def test_block_law_is_the_enumeration(self, make, levels, lam):
        # row 0 of a table at n = its steps is the law of the whole path:
        # at n = 2^b B the path is one draw from the table of 2^b blocks,
        # and at n = 3 < B one draw from the leftover table.  The tables
        # with n <= 14, the enumeration's guard, are held to it: at
        # gamma = 0.45 B = 7, so that includes its doubled table, at
        # n = 14; gamma = 0.3's, at n = 16, is held to the forward pass in
        # the next test.  sign_switch's doubling is refused, as its rows
        # would pass BLOCK_TABLE_CELLS
        steps = block_steps(*make(1).table.T.shape)
        assert len(make(2 * steps)._blocks[0]) == levels
        tables = [(steps << b, make(steps << b).block_tables(lam)[0][b])
                  for b in range(levels) if steps << b <= 14]
        tables.append((3, make(3).block_tables(lam)[1]))
        for n, tab in tables:
            assert tab.steps == n
            dx, lw, prob = row0_law(tab, lam)
            got_keys, (got,) = by_value([dx, lw], [prob])
            q, x, lw = enumerate_terminal(make(n), lam)
            want_keys, (want,) = by_value([x, lw], [q])
            for g, w in zip(got_keys, want_keys):
                assert np.allclose(g, w, rtol=0.0, atol=1e-12)
            assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("lam", [0.0, 0.8])
    def test_doubled_table_is_the_forward_pass(self, lam):
        # regime_switch's table of two blocks at n = 2B = 16, past the
        # enumeration's guard: per value of X_n, its P_lam and E_lam[w^2]
        # against the forward pass over (state, X)
        m = make_regime_switch(2 * _B_RS, 0.3)
        tab = m.block_tables(lam)[0][1]
        assert tab.steps == m.n
        dx, lw, prob = row0_law(tab, lam)
        (got_x,), (mass, m2) = by_value([dx], [prob, prob * np.exp(2.0 * lw)])
        values, _, want_mass, want_m2 = exact_terminal_law(m, lam)
        assert np.allclose(got_x, values, rtol=0.0, atol=1e-9)
        assert np.abs(mass - want_mass).max() <= 1e-12
        assert np.allclose(m2, want_m2, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("model", [
        make_regime_switch(1600, 0.3), make_regime_switch(1600, 0.1),
        make_regime_switch(1600, 0.0), SignSwitch(1600)],
        ids=["regime_switch", "regime_switch-0.1", "regime_switch-0.0", "sign_switch"])
    def test_doubling_stops_at_the_cell_bound(self, model):
        # each level's cells_bound is at most the true cell count of each
        # row of its doubling, and the ladder stops at the first doubling
        # past BLOCK_TABLE_CELLS; all four stop there before 2^b blocks
        # would pass n
        ladder = model._blocks[0]
        assert 1 << len(ladder) <= model.n // ladder[0].steps
        for b, level in enumerate(ladder):
            bound = level.cells_bound()
            full = level.doubled(math.inf)
            cells = np.bincount(full.cell // full.width, minlength=bound.size)
            assert (bound <= cells).all()
            assert (full.width <= BLOCK_TABLE_CELLS) == (b + 1 < len(ladder))

    def test_doubling_refused_before_pairing(self, monkeypatch):
        # regime_switch's table of four blocks would have 1008 cells in a
        # row; the bound shows that before its 345k pairs are formed, so
        # only the forward pass (3328 atom sequences) and the one doubling
        # group outcomes
        real, sizes = _BlockOutcomes.group.__func__, []

        def counted(cls, steps, rows, row, *rest):
            sizes.append(row.size)
            return real(cls, steps, rows, row, *rest)

        monkeypatch.setattr(_BlockOutcomes, "group", classmethod(counted))
        ladder = make_regime_switch(1600, 0.3)._blocks[0]
        assert [level.steps for level in ladder] == [8, 16]
        assert ladder[1].cells_bound().max() > BLOCK_TABLE_CELLS
        assert sizes == [3328, 26112]
        # the first doubling forms 26112 pairs, so a DOUBLING_PAIRS one
        # below that refuses it
        monkeypatch.setattr(models, "DOUBLING_PAIRS", 26111)
        assert len(make_regime_switch(1600, 0.3)._blocks[0]) == 1

    def test_block_steps_rule(self):
        # the largest b whose forward pass over every state fits the budget
        assert block_steps(95, 2) == 8 and block_steps(3, 3) == 8
        assert block_steps(BLOCK_CELLS, 2) == block_steps(BLOCK_CELLS + 1, 2) == 1
        for states in (1, 2, 3, 95, 1000):
            for width in (2, 3, 9):
                b = block_steps(states, width)
                assert b == 1 or states * width ** b <= BLOCK_CELLS
                assert states * width ** (b + 1) > BLOCK_CELLS

    @pytest.mark.parametrize("n", [3, _B_RS, 2 * _B_RS + 3, 3 * _B_RS,
                                   4 * _B_RS + 3, 7 * _B_RS + 5])
    def test_one_uniform_per_planned_draw(self, n):
        # a path of k = n // B blocks takes one uniform per draw of
        # draw_plan(k, levels), and one for the leftover steps; the tables
        # drawn from cover the n steps
        m = make_regime_switch(n, 0.3)
        rng = CountingRng(0)
        m.simulate_terminal(100, rng, 0.8)
        ladder, plan, rem = m._blocks
        assert plan == draw_plan(n // _B_RS, len(ladder))
        assert rng.calls == [100] * (len(plan) + (n % _B_RS > 0))
        tables, leftover = m.block_tables(0.8)
        assert sum(tables[b].steps for b in plan) + n % _B_RS == n
        assert (leftover is None) == (rem is None) == (n % _B_RS == 0)

    def test_regime_switch_draw_count(self):
        # at n = 1600 a regime_switch path takes at most 100 uniforms: the
        # 200 blocks of 8 steps are drawn two at a time
        rng = CountingRng(0)
        make_regime_switch(1600, 0.3).simulate_terminal(10, rng, 1.0)
        assert len(rng.calls) <= 100

    def test_plain_stream_pinned(self):
        # the value the block sampler draws; any change to the stream layout
        # or the per-draw tables shows here.  From the same streams, the
        # per-step sampler drew 0.1555 and the sampler of one block per
        # uniform 0.1573; all are independent estimates of one probability,
        # so each pair agrees within 4 sqrt(2) SE
        est = estimate_tail_plain(make_regime_switch(200, 0.3), 1.0, 20000, 5)
        assert est.p_hat == 0.1629
        for earlier in (0.1555, 0.1573):
            assert abs(est.p_hat - earlier) <= 4.0 * math.sqrt(2.0) * est.std_err
