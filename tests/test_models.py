import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdmart.models import (ATOL, BLOCK_CELLS, CertificationError,
                           ConditionalLaw, MartingaleModel, ModelError,
                           block_steps, certify, check_sakhanenko,
                           make_heavy_left, make_rademacher,
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
# it, B + 2 and 2B + 3, so both the full block table and the leftover one
# are drawn from
_B_RS = block_steps(*make_regime_switch(1, 0.3).table.T.shape)
_B_SS = block_steps(*SignSwitch(1).table.T.shape)
SAMPLER_MODELS = {"regime_switch": make_regime_switch(10, 0.3),
                  "heavy_left": make_heavy_left(3), "sign_switch": SignSwitch(6),
                  "rademacher": make_rademacher(12)}
SAMPLER_MODELS.update({f"{m.name}-n{m.n}": m for m in (
    make_regime_switch(3, 0.3), make_regime_switch(_B_RS, 0.3),
    make_regime_switch(2 * _B_RS + 3, 0.3), SignSwitch(_B_SS),
    SignSwitch(2 * _B_SS + 3))})


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
        paths = enumerate_terminal(model, lam)
        q, x, lw = (np.array(c) for c in zip(*paths))
        p = [p for p, _, _ in enumerate_terminal(model, 0.0)]
        m2 = [math.exp(math.log(a) + 2.0 * b) if a > 0.0 else math.nan
              for a, b in zip(q, lw)]
        (want_values,), want = by_value([x], [p, q, m2])
        assert np.allclose(values, want_values, rtol=0.0, atol=1e-9)
        # probabilities to 1e-12; the second moments are exponentials of
        # sums taken in another order, so to 1e-10
        for g, w, rtol in zip(got, want, (1e-12, 1e-12, 1e-10)):
            assert np.allclose(g, w, rtol=rtol, atol=0.0, equal_nan=True)

    @pytest.mark.parametrize("lam", [0.0, 0.8])
    @pytest.mark.parametrize("make", [lambda n: make_regime_switch(n, 0.3), SignSwitch],
                             ids=["regime_switch", "sign_switch"])
    def test_block_law_is_the_enumeration(self, make, lam):
        # row 0 of the block table at n = b is the law of the whole path:
        # b = B uses the full table, b = 3 < B the leftover one
        steps = block_steps(*make(1).table.T.shape)
        for b in (steps, 3):
            m = make(b)
            full, rem = m.block_tables(lam)
            tab = full if b == steps else rem
            assert tab.steps == b
            row0 = np.flatnonzero(tab.prob[:tab.width] > 0.0)
            dx = tab.dx[row0]
            got_keys, (got,) = by_value([dx, -lam * dx + tab.dpsi[row0]],
                                        [tab.prob[row0]])
            q, x, lw = (np.array(c) for c in zip(*enumerate_terminal(m, lam)))
            want_keys, (want,) = by_value([x, lw], [q])
            for g, w in zip(got_keys, want_keys):
                assert np.allclose(g, w, rtol=0.0, atol=1e-12)
            assert np.abs(got - want).max() <= 1e-12

    def test_block_steps_rule(self):
        # the largest b whose forward pass over every state fits the budget
        assert block_steps(95, 2) == 8 and block_steps(3, 3) == 8
        assert block_steps(BLOCK_CELLS, 2) == block_steps(BLOCK_CELLS + 1, 2) == 1
        for states in (1, 2, 3, 95, 1000):
            for width in (2, 3, 9):
                b = block_steps(states, width)
                assert b == 1 or states * width ** b <= BLOCK_CELLS
                assert states * width ** (b + 1) > BLOCK_CELLS

    def test_one_uniform_per_block(self):
        # 2B + 3 steps take three uniforms per path: two blocks and the
        # leftover steps
        class Counting:
            def __init__(self):
                self.rng, self.calls = np.random.default_rng(0), []

            def random(self, size):
                self.calls.append(size)
                return self.rng.random(size)

        m = make_regime_switch(2 * _B_RS + 3, 0.3)
        rng = Counting()
        m.simulate_terminal(100, rng, 0.8)
        assert rng.calls == [100, 100, 100]

    def test_plain_stream_pinned(self):
        # the value the block sampler draws; any change to the stream layout
        # or the per-block draw shows here.  The per-step sampler it replaced
        # drew 0.1555 from the same streams; the two are independent
        # estimates of one probability, so they agree within 4 sqrt(2) SE
        est = estimate_tail_plain(make_regime_switch(200, 0.3), 1.0, 20000, 5)
        assert est.p_hat == 0.1573
        assert abs(est.p_hat - 0.1555) <= 4.0 * math.sqrt(2.0) * est.std_err
