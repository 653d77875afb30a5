import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from mdmart import alias
from mdmart.alias import BLOCK_TABLE_CELLS, draw_plan
from mdmart.models import (ATOL, BLOCK_CELLS, DEFAULT_GRID, Certificate,
                           CertificationError, ConditionalLaw, IIDModel,
                           MartingaleModel, ModelError,
                           block_steps, certify, make_heavy_left, make_rademacher,
                           make_regime_switch, verify_certificate)
from mdmart.montecarlo import enumerate_terminal, estimate_tail_plain
from mdmart.tilt import choose_tilt


def two_point(a, b):
    # mean-zero two-point law with positive atom a and negative atom b
    p = -b / (a - b)
    return ConditionalLaw(((a, p), (b, 1.0 - p)))


def reference_tilt(law, lam, n):
    """`law` scaled by 1/sqrt(n) and tilted by lam, atom by atom in scalar
    arithmetic: ([(value, prob), ...], log mgf), the probabilities
    proportional to p e^{lam v} after factoring out the largest lam v.  The
    oracle the models' law arrays are held to, float for float."""
    scale = 1.0 / math.sqrt(n)
    atoms = [(v * scale, p) for v, p in law.atoms]
    if lam == 0.0:
        return atoms, 0.0
    shift = max(lam * v for v, _ in atoms)
    raw = [(v, p * math.exp(lam * v - shift)) for v, p in atoms]
    z = math.fsum(w for _, w in raw)
    return [(v, w / z) for v, w in raw], math.log(z) + shift


def second_moment(values, probs):
    """E[v^2] of the law arrays of a one-law model."""
    return math.fsum((probs * values * values).ravel().tolist())


def law_second_moment(law):
    """E[v^2] of a law, atom by atom: the oracle of the models' second
    moments, float for float."""
    return math.fsum(p * v * v for v, p in law.atoms)


def log_sakhanenko_moment(law, rho, K, two_sided=False):
    """log E[|v|^{2+rho} e^{K v+}] (or e^{K|v|} for the two-sided variant)
    of a law, atom by atom in scalar arithmetic, in log space so that deep
    negative atoms with enormous exponential moments do not overflow: the
    oracle of `moment_condition`, float for float."""
    terms = []
    for v, p in law.atoms:
        if v == 0.0:
            continue
        exponent = K * (abs(v) if two_sided else max(v, 0.0))
        terms.append(math.log(p) + (2.0 + rho) * math.log(abs(v)) + exponent)
    if not terms:
        return -math.inf
    m = max(terms)
    return m + math.log(math.fsum(math.exp(t - m) for t in terms))


def check_sakhanenko(law, rho, K, L, two_sided=False):
    """(ok, log_lhs, log_rhs) of E[|v|^{2+rho} e^{K v+}] <= L^rho E[v^2] on
    one law, compared in log space."""
    log_lhs = log_sakhanenko_moment(law, rho, K, two_sided=two_sided)
    log_rhs = rho * math.log(L) + math.log(law_second_moment(law))
    return log_lhs <= log_rhs + ATOL, log_lhs, log_rhs


def check_bernstein(law, k, H):
    """Conditional Bernstein condition |E v^k| <= (1/2) k! H^{k-2} E v^2."""
    moment = math.fsum(p * v ** k for v, p in law.atoms)
    return abs(moment) <= 0.5 * math.factorial(k) * H ** (k - 2) * law_second_moment(law)


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
        values, probs, _ = IIDModel("law", 100, 1.0, law).law_arrays(0.0)
        assert second_moment(values, probs) == pytest.approx(0.01 * law_second_moment(law))


class TestRademacher:
    def test_basic_law(self):
        m = make_rademacher(1)
        law = m.law_at(m.initial_state())
        assert set(law.atoms) == {(1.0, 0.5), (-1.0, 0.5)}

    def test_scaled_law_n4(self):
        values, probs, _ = make_rademacher(4).law_arrays(0.0)
        assert sorted(values[0].tolist()) == [-0.5, 0.5]
        assert second_moment(values, probs) == pytest.approx(0.25)

    def test_certificate_bounded_increment_rule(self):
        # |eta| <= 1 gives E|eta|^3 e^{K eta+} <= e^K E eta^2, i.e. the
        # moment condition with K = 1, L = e; verified by exact finite sums
        m = make_rademacher(4)
        law = m.law_at(None)
        ok, log_lhs, log_rhs = check_sakhanenko(law, 1.0, 1.0, math.e)
        assert ok
        assert log_lhs == pytest.approx(math.log(0.5 * math.e + 0.5))
        assert log_rhs == pytest.approx(1.0)
        # the model's table gives both sides float for float
        lhs, rhs = m.moment_condition(1.0, [1.0], [math.e])
        assert (lhs.tolist(), rhs.tolist()) == ([[log_lhs]], [[log_rhs]])

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
        assert law_second_moment(law) == pytest.approx(1.0, abs=1e-12)
        assert m.second_moments.tolist() == [law_second_moment(law)]
        # scaled variance is 1/n
        assert second_moment(*m.law_arrays(0.0)[:2]) == pytest.approx(0.01)

    def test_one_sidedness(self):
        m = make_heavy_left(100, 0.5, 8)
        cert = certify(m)
        law = m.law_at(None)
        ok_one, log_lhs, log_rhs = check_sakhanenko(law, 0.5, cert.K, cert.L)
        ok_two, _, _ = check_sakhanenko(law, 0.5, cert.K, cert.L, two_sided=True)
        assert ok_one and not ok_two
        lhs, rhs = m.moment_condition(0.5, [cert.K], [cert.L])
        assert (lhs.tolist(), rhs.tolist()) == ([[log_lhs]], [[log_rhs]])

    def test_rho_checked_before_the_law(self):
        # the law is built from rho, so a rho outside (0, 1] is refused first
        for rho in (0.0, -1.0, 1.5):
            with pytest.raises(ModelError, match="rho must lie in"):
                make_heavy_left(400, rho=rho)
        with pytest.raises(ModelError, match="tail atoms"):
            make_heavy_left(400, tail_atoms=1)

    def test_bernstein_violated(self):
        law = make_heavy_left(100, 0.5, 8).law_at(None)
        for H in (1.0, 10.0, 100.0, 1000.0):
            assert not check_bernstein(law, 6, H)

    def test_exponential_moment_huge(self):
        # the two-sided moment E|v|^{2+rho} e^{K|v|} at the certified K
        m = make_heavy_left(100, 0.5, 8)
        cert = certify(m)
        log_moment = log_sakhanenko_moment(m.law_at(None), 0.5, cert.K, two_sided=True)
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
        # bit for bit the scalar search's witness
        witness = (exc.value.witness_law, exc.value.log_lhs, exc.value.log_rhs)
        assert witness == self.searched(m, (64.0,))

    @staticmethod
    def searched(model, grid=DEFAULT_GRID):
        """What `certify` gives when it calls the scalar `check_sakhanenko`
        afresh for every candidate and law: the Certificate, or the witness
        (law, log_lhs, log_rhs) of the CertificationError.  N is that of the
        forward pass."""
        laws = model.table.laws
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
                                   N=math.sqrt(forward_deviation(model)[0]))
        return worst

    @pytest.mark.parametrize("model", [
        make_heavy_left(400, 0.5), make_heavy_left(400, 1.0),
        make_heavy_left(1600), make_regime_switch(400, 0.3),
        make_rademacher(400, 0.7)], ids=lambda m: f"{m.name}-rho{m.rho}")
    def test_certificate_is_the_full_search(self, model):
        assert certify(model) == self.searched(model)

    @pytest.mark.parametrize("n", [100, 400, 1600, 6400])
    @pytest.mark.parametrize("make", [
        make_rademacher, make_heavy_left, lambda n: make_regime_switch(n, 0.3),
        lambda n: make_rademacher(n, 0.5), lambda n: make_heavy_left(n, 1.0),
        lambda n: make_heavy_left(n, tail_atoms=4),
        lambda n: make_regime_switch(n, 0.2, rho=0.7), lambda n: make_rademacher(n, 0.7)],
        ids=["rademacher", "heavy_left", "regime_switch", "rademacher-rho0.5",
             "heavy_left-rho1", "heavy_left-tail_atoms4", "regime_switch-gamma0.2-rho0.7",
             "rademacher-rho0.7"])
    def test_certificates_at_every_horizon_are_the_full_search(self, make, n):
        # every certificate, N included, bit for bit: the three models at
        # their defaults and at the flags the certificate-name test runs
        model = make(n)
        assert certify(model) == self.searched(model)

    @pytest.mark.parametrize("make", [
        lambda: make_rademacher(9), lambda: make_heavy_left(9),
        lambda: make_heavy_left(9, 1.0, 4), lambda: make_regime_switch(9, 0.3),
        lambda: make_regime_switch(9, 0.45, 0.2), lambda: SignSwitch(9)],
        ids=["rademacher", "heavy_left", "heavy_left-rho1-tail_atoms4", "regime_switch",
             "regime_switch-gamma0.45-rho0.2", "sign_switch"])
    def test_moment_condition_is_the_scalar_moment(self, make):
        # both sides for every law, on the whole grid and at L off it, float
        # for float the scalar per-law sums
        model = make()
        L = [*DEFAULT_GRID[::-1], 3.0, math.e]
        log_lhs, log_rhs = model.moment_condition(model.rho, DEFAULT_GRID, L)
        laws = model.table.laws
        assert log_lhs.shape == (len(laws), len(DEFAULT_GRID))
        assert log_rhs.shape == (len(laws), len(L))
        for i, law in enumerate(laws):
            for j, K in enumerate(DEFAULT_GRID):
                for m, x in enumerate(L):
                    _, lhs, rhs = check_sakhanenko(law, model.rho, K, x)
                    assert (log_lhs[i, j], log_rhs[i, m]) == (lhs, rhs)

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
        assert 10 * m.law_arrays(0.0)[0].max() == pytest.approx(math.sqrt(10))

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
        lam = choose_tilt(m, x).lam
        values, probs, _ = m.law_arrays(lam)
        v, p = values[0], probs[0]
        assert np.count_nonzero(p == 0.0) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            xs = m.simulate_terminal(size, np.random.default_rng(7), lam).x
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


class Cycle(MartingaleModel):
    """One law at every state, the states visited in a cycle of `period`:
    a one-state model, and copies of it with more states.  E eta^2 - 1 =
    -0.4 is inexact in binary, so sums of it taken in other orders round
    differently."""

    LAW = two_point(2.0, -0.3)

    def __init__(self, n, period):
        super().__init__("cycle", n, 1.0)
        self.period = period

    def initial_state(self):
        return 0

    def law_at(self, state):
        return self.LAW

    def next_state(self, state, eta):
        return (state + 1) % self.period


def three_atom(n):
    """An i.i.d. law whose least probable atom lies between the two others
    in table order, and whose first common atom has the smaller value: the
    one-state sampler draws the middle atom's count first, then splits the
    rest between atoms 0 and 2 at the share 0.5 / 0.8."""
    return IIDModel("three_atom", n, 1.0, ConditionalLaw(((0.2, 0.5), (-2.0, 0.2), (1.0, 0.3))))


def forward_deviation(model):
    """The variance constant by a forward pass of single steps, as the
    library computed it before it went block by block: per state, the least
    and the greatest sum of E[eta^2 | state] - 1 over the paths that reach
    it, each step added to the sums so far.  Returns (the deviation, P), P
    the largest |sum| over every path and step.

    Any order of adding a path's n terms makes partial sums of contiguous
    runs of them, each at most 2P in size, so it rounds at most n u 2P away
    from the exact sum (u = eps / 2, to first order), and two orders at most
    2 n eps P apart; so do the least and greatest over paths."""
    t = model.table
    S, width = t.T.shape
    step = np.array([law_second_moment(law) - 1.0 for law in t.laws])[t.law_of]
    half = np.repeat([0, S], S * width)
    src = np.tile(np.repeat(np.arange(S), width), 2) + half
    to = np.tile(t.T.ravel(), 2) + half
    inc = np.concatenate([step, -step])
    v = np.full(2 * S, math.inf)
    v[0] = v[S] = 0.0
    P = 0.0
    for _ in range(model.n):
        nxt = np.full(2 * S, math.inf)
        np.minimum.at(nxt, to, (v + inc)[src])
        v = nxt
        P = max(P, float(np.abs(v[v < math.inf]).max()))
    return float(abs(v.min())), P


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
    base = [reference_tilt(law, 0.0, model.n)[0] for law in t.laws]
    tilted = [reference_tilt(law, lam, model.n) for law in t.laws]
    dist = {(0, 0.0): (1.0, 1.0, 1.0)}  # P, P_lam, E_lam[exp(2 Psi_k)]
    for _ in range(model.n):
        nxt = {}
        for (s, x), (p, q, m) in dist.items():
            law = t.law_of[s]
            atoms, log_mgf = tilted[law]
            grow = math.exp(2.0 * log_mgf)
            for a, ((v, pa), (_, qa)) in enumerate(zip(base[law], atoms)):
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
# tables of one and of two blocks, or of four blocks and the leftover steps
_B_RS = block_steps(*make_regime_switch(1, 0.3).table.T.shape)
_B_SS = block_steps(*SignSwitch(1).table.T.shape)
SAMPLER_MODELS = {"regime_switch": make_regime_switch(10, 0.3),
                  "heavy_left": make_heavy_left(3), "sign_switch": SignSwitch(6),
                  "rademacher": make_rademacher(12), "three_atom": three_atom(12)}
SAMPLER_MODELS.update({f"{m.name}-n{m.n}": m for m in (
    make_regime_switch(3, 0.3), make_regime_switch(_B_RS, 0.3),
    make_regime_switch(2 * _B_RS + 3, 0.3), make_regime_switch(3 * _B_RS, 0.3),
    make_regime_switch(4 * _B_RS + 3, 0.3), SignSwitch(_B_SS),
    SignSwitch(2 * _B_SS + 3))})


# the chance that a correct sampler fails one case of
# test_sampler_law_matches_enumeration, over all of that case's bins
SAMPLER_ALARM = 1e-4


# (model, lam, atoms whose tilted probability underflows to 0.0); heavy_left
# at n = 1600 also at the tilt for x = 2 and at lam = 40
_HL = make_heavy_left(1600)
LAW_ARRAY_CASES = {
    f"{name}-{lam}": (model, lam, zeros)
    for lam in (0.0, 0.5, 1.1)
    for name, model, zeros in (
        ("rademacher", make_rademacher(9), 0),
        ("heavy_left", make_heavy_left(9), 0 if lam == 0.0 else 3),
        ("regime_switch", make_regime_switch(9, 0.3), 0),
        ("sign_switch", SignSwitch(9), 0))}
LAW_ARRAY_CASES.update({"heavy_left-n1600-x2": (_HL, choose_tilt(_HL, 2.0).lam, 2),
                        "heavy_left-n1600-40.0": (_HL, 40.0, 4)})


def row0_law(tab, lam):
    """(X, log weight, P_lam) of the cells of row 0 of a `BlockTable`: the
    law of the table's steps from state 0."""
    row0 = np.flatnonzero(tab.prob[:tab.width] > 0.0)
    dx = tab.dx[row0]
    return dx, -lam * dx + tab.dpsi[row0], tab.prob[row0]


def levels(model):
    """The levels of a model's ladder: its block tables less the leftover
    one, whose steps B does not divide."""
    tables = model._blocks[0]
    return [g for g in tables if g.steps % tables[0].steps == 0]


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
        assert make_regime_switch(10, 0.3).table.states == m.table.states
        assert make_heavy_left(10).iid and not m.iid
        assert SignSwitch(5).table.T.tolist() == [[1, 2, 2], [1, 1, 2], [1, 2, 2]]

    @pytest.mark.parametrize("model, lam, zeros", LAW_ARRAY_CASES.values(),
                             ids=LAW_ARRAY_CASES.keys())
    def test_law_arrays_are_the_tilted_laws(self, model, lam, zeros):
        # each law's row holds its atoms bit for bit, then 0.0 padding, and
        # the mask marks exactly its atoms; `zeros` atoms underflow to
        # probability 0.0
        def same(a, b):
            return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()

        t = model.table
        values, probs, log_mgf = model.law_arrays(lam)
        width = t.T.shape[1]
        assert values.shape == probs.shape == t.values.shape == t.real.shape
        for i, law in enumerate(t.laws):
            k, pad = len(law.atoms), [0.0] * (width - len(law.atoms))
            atoms, psi = reference_tilt(law, lam, model.n)
            assert t.real[i].tolist() == [True] * k + [False] * (width - k)
            assert same(t.values[i], [v for v, _ in law.atoms] + pad)
            assert same(t.probs[i], [p for _, p in law.atoms] + pad)
            assert same(values[i], [v for v, _ in atoms] + pad)
            assert same(probs[i], [p for _, p in atoms] + pad)
            assert same(log_mgf[i], psi)
        assert np.count_nonzero(probs[t.real] == 0.0) == zeros
        if isinstance(model, SignSwitch):
            assert not t.real.all()  # some rows are padded

    @pytest.mark.parametrize("lam", [-0.1, math.inf, math.nan])
    def test_law_arrays_refuse_bad_tilts(self, lam):
        for model in (make_rademacher(9), make_regime_switch(9, 0.3)):
            with pytest.raises(ValueError, match="lambda"):
                model.law_arrays(lam)

    def test_variance_deviation_by_enumeration(self):
        # the forward pass against max |sum_i (E[eta_i^2 | F_{i-1}] - 1)|
        # over every path, on a model where paths into one state differ
        def worst(m, step, state, total):
            if step == m.n:
                return abs(total)
            law = m.law_at(state)
            return max(worst(m, step + 1, m.next_state(state, v),
                             total + law_second_moment(law) - 1.0)
                       for v, _ in law.atoms)

        for m in (SignSwitch(1), SignSwitch(7), make_regime_switch(9, 0.3)):
            assert m.variance_deviation() == pytest.approx(
                worst(m, 0, m.initial_state(), 0.0), rel=1e-12, abs=1e-12)

    def test_one_state_deviation_is_the_forward_pass(self):
        # one state takes the block pass too, with no shortcut: it and a
        # two-state table with the same law at both states (whose blocks
        # are a step shorter) are each held to the forward pass within the
        # bound of rounding in another order, and so to each other
        one, two = Cycle(1600, 1), Cycle(1600, 2)
        assert len(one.table.states) == 1 and len(two.table.states) == 2
        want, P = forward_deviation(one)
        assert forward_deviation(two) == (want, P)
        bound = 2 * 1600 * np.finfo(float).eps * P
        for m in (one, two):
            assert abs(m.variance_deviation() - want) <= bound
        assert abs(one.variance_deviation() - two.variance_deviation()) <= bound

    @pytest.mark.parametrize("gamma", [0.0, 0.2, 0.25, 0.3, 0.45])
    def test_variance_deviation_is_the_forward_pass(self, gamma):
        # the block pass against the step-by-step one, at horizons below,
        # at and above one block and up to 6400; bit for bit for gamma below
        # 0.45, within the bound of rounding in another order at 0.45, where
        # it moves by up to 1.6e-14
        steps = block_steps(*make_regime_switch(1, gamma).table.T.shape)
        for n in (1, steps - 1, steps, steps + 1, 100, 401, 1600, 6400):
            got = make_regime_switch(n, gamma).variance_deviation()
            want, P = forward_deviation(make_regime_switch(n, gamma))
            if gamma < 0.45:
                assert got == want, n
            assert abs(got - want) <= 2 * n * np.finfo(float).eps * P, n

    @pytest.mark.parametrize("make, exact", [
        (SignSwitch, False), (lambda n: Cycle(n, 3), False),
        (make_heavy_left, True), (make_rademacher, True)],
        ids=["sign_switch", "cycle", "heavy_left", "rademacher"])
    def test_other_deviations_are_the_forward_pass(self, make, exact):
        # as above on the test models and the i.i.d. ones, whose one state
        # takes the block pass too; heavy_left's E eta^2 - 1 is 2^-51, so
        # its sums are exact
        steps = block_steps(*make(1).table.T.shape)
        for n in (1, steps - 1, steps, steps + 1, 100, 401, 1600):
            got = make(n).variance_deviation()
            want, P = forward_deviation(make(n))
            assert got == want or not exact, n
            assert abs(got - want) <= 2 * n * np.finfo(float).eps * P, n

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
        # exact probability, within z of the estimator's exact SEs from the
        # exact tilted law.  Values expected fewer than 50 times under P_lam
        # are pooled into one bin: a bin of a few dozen expected draws has
        # a heavier upper tail than the normal, and the stated rate would
        # not hold.  Values whose tilted probability underflows to 0 cannot
        # be drawn.  z is the Bonferroni bound for a family-wise false-alarm
        # rate of SAMPLER_ALARM over the case's bins, in the normal
        # approximation: z = 4.21 for 4 bins, 4.99 for 160
        values, exact, mass, m2 = exact_terminal_law(model, lam)
        size = 1 << 15
        batch = model.simulate_terminal(size, np.random.default_rng(5), lam)
        # each drawn X_n is one of the exact values, up to float sum order
        i = np.clip(np.searchsorted(values, batch.x), 1, values.size - 1)
        i -= batch.x - values[i - 1] < values[i] - batch.x
        assert np.abs(batch.x - values[i]).max() < 1e-9
        w = np.exp(batch.log_weight)
        drawable = ~np.isnan(m2)
        assert drawable[i].all()
        assert math.fsum(exact[drawable]) > 1.0 - 1e-6
        rare = drawable & (size * mass < 50.0)
        bins = [[j] for j in np.flatnonzero(drawable & ~rare)] + [np.flatnonzero(rare)]
        assert len(bins) >= 4
        z = float(ndtri(1.0 - SAMPLER_ALARM / (2 * len(bins))))
        for js in bins:
            est = float(w[np.isin(i, js)].sum()) / size
            p = math.fsum(exact[js])
            se = math.sqrt(max(math.fsum(m2[js]) - p * p, 0.0) / size)
            assert abs(est - p) <= z * se, (values[js][:3], est, p, se, z)

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
        # the next test.  sign_switch's doubling is refused, as its steps
        # per law are not a function of a block's start and end rows
        steps = block_steps(*make(1).table.T.shape)
        assert len(make(2 * steps)._blocks[0]) == levels
        tables = [(steps << b, make(steps << b).block_tables(lam)[b])
                  for b in range(levels) if steps << b <= 14]
        tables.append((3, make(3).block_tables(lam)[-1]))
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
        # every level the ladder builds at n = 1600, at n = 2^b B, past the
        # enumeration's guard: per value of X_n, its P_lam and E_lam[w^2]
        # against the forward pass over (state, X)
        for gamma, steps in ((0.2, [9, 18, 36, 72]), (0.25, [9, 18, 36]),
                             (0.3, [8, 16, 32]), (0.45, [7, 14])):
            # the table of the 1600 mod B steps left over comes last
            tables = make_regime_switch(1600, gamma)._blocks[0]
            assert [g.steps for g in tables] == steps + [1600 % steps[0]] * (1600 % steps[0] > 0)
            for b, n in enumerate(steps):
                m = make_regime_switch(n, gamma)
                tab = m.block_tables(lam)[b]
                assert tab.steps == m.n
                dx, lw, prob = row0_law(tab, lam)
                (got_x,), (mass, m2) = by_value([dx], [prob, prob * np.exp(2.0 * lw)])
                values, _, want_mass, want_m2 = exact_terminal_law(m, lam)
                assert np.allclose(got_x, values, rtol=0.0, atol=1e-9)
                assert np.abs(mass - want_mass).max() <= 1e-12
                assert np.allclose(m2, want_m2, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("make", [
        lambda: make_regime_switch(1600, 0.3), lambda: make_regime_switch(1600, 0.1),
        lambda: make_regime_switch(1600, 0.0), lambda: SignSwitch(1600)],
        ids=["regime_switch", "regime_switch-0.1", "regime_switch-0.0", "sign_switch"])
    def test_doubling_stops_at_the_cell_bound(self, make, monkeypatch):
        # each level's rows fit BLOCK_TABLE_CELLS, and the ladder stops at the
        # first doubling whose rows would not: with the cap raised, the next
        # level is built and is wider.  sign_switch, whose steps per law are
        # not a function of a block's start and end rows, keeps level 0
        ladder = levels(make())
        assert all(level.width <= BLOCK_TABLE_CELLS for level in ladder)
        assert 1 << len(ladder) <= 1600 // ladder[0].steps
        monkeypatch.setattr(alias, "BLOCK_TABLE_CELLS", 4 * BLOCK_TABLE_CELLS)
        wider = levels(make())
        if isinstance(make(), SignSwitch):
            assert len(ladder) == len(wider) == 1
            return
        assert [level.width for level in wider[:len(ladder)]] == [level.width for level in ladder]
        assert wider[len(ladder)].width > BLOCK_TABLE_CELLS

    def test_doubling_refused_before_convolving(self, monkeypatch):
        # regime_switch's table of 8 blocks would have 2100 cells in a row;
        # the support bound shows that before any convolution, so every
        # np.convolve call is made by the doublings to 16 and 32 steps
        calls, composed = [], []
        convolve, compose = np.convolve, alias.compose

        def counted_convolve(a, b):
            calls.append(1)
            return convolve(a, b)

        def counted_compose(*args):
            before = len(calls)
            out = compose(*args)
            composed.append(len(calls) - before)
            return out

        monkeypatch.setattr(np, "convolve", counted_convolve)
        monkeypatch.setattr(alias, "compose", counted_compose)
        ladder = levels(make_regime_switch(1600, 0.3))
        assert [(level.steps, level.width) for level in ladder] == [(8, 66), (16, 252), (32, 868)]
        assert len(composed) == 2 and sum(composed) == len(calls) > 0

    def test_doubling_refused_at_the_first_full_row(self, monkeypatch):
        # at gamma = 0.45 the support bound lets the doubling to 28 steps
        # through (572 cells a row against 1024); `compose` refuses it once
        # the joins of its first start row, which passes the cap, are done:
        # after that row's 8 of its 1,160 convolutions.  The ladder keeps
        # its two levels
        calls, composed = [], []
        convolve, compose = np.convolve, alias.compose

        def counted_convolve(a, b):
            calls.append(1)
            return convolve(a, b)

        def counted_compose(*args):
            before = len(calls)
            out = compose(*args)
            composed.append((len(calls) - before, out is None))
            return out

        monkeypatch.setattr(np, "convolve", counted_convolve)
        monkeypatch.setattr(alias, "compose", counted_compose)
        ladder = levels(make_regime_switch(1600, 0.45))
        assert [(level.steps, level.width) for level in ladder] == [(7, 48), (14, 198)]
        assert composed[0][1] is False and composed[1] == (8, True)

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
        # draw_plan(k, levels), and one for the leftover steps, from the
        # plan's last table; the tables drawn from cover the n steps
        m = make_regime_switch(n, 0.3)
        rng = CountingRng(0)
        m.simulate_terminal(100, rng, 0.8)
        tables, plan = m._blocks
        ladder = levels(m)
        assert plan == draw_plan(n // _B_RS, len(ladder)) + [len(ladder)] * (n % _B_RS > 0)
        assert len(tables) == len(ladder) + (n % _B_RS > 0)
        assert rng.calls == [100] * len(plan)
        tilted = m.block_tables(0.8)
        assert sum(tilted[b].steps for b in plan) == n

    def test_regime_switch_draw_count(self):
        # at n = 1600 a regime_switch path takes at most 50 uniforms: the
        # 200 blocks of 8 steps are drawn four at a time
        rng = CountingRng(0)
        make_regime_switch(1600, 0.3).simulate_terminal(10, rng, 1.0)
        assert len(rng.calls) <= 50

    def test_plain_stream_pinned(self):
        # the value the block sampler draws; any change to the stream layout
        # or the per-draw tables shows here.  From the same streams, the
        # per-step sampler drew 0.1555, the sampler of one block per uniform
        # 0.1573 and that of two 0.1629; all are independent estimates of
        # one probability (0.157890 exactly), so each pair agrees within
        # 4 sqrt(2) SE
        est = estimate_tail_plain(make_regime_switch(200, 0.3), 1.0, 20000, 5)
        assert est.p_hat == 0.15475
        for earlier in (0.1555, 0.1573, 0.1629):
            assert abs(est.p_hat - earlier) <= 4.0 * math.sqrt(2.0) * est.std_err
