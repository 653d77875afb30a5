import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdmart.models import (ATOL, Certificate, CertificationError,
                           ConditionalLaw, ModelError, certify,
                           check_bernstein, check_sakhanenko, make_heavy_left,
                           make_rademacher, make_regime_switch,
                           model_from_spec, verify_certificate)
from mdmart.tilt import sample_tilted_path


def two_point(a, b):
    # mean-zero two-point law with positive atom a and negative atom b
    p = -b / (a - b)
    return ConditionalLaw(((a, p), (b, 1.0 - p)))


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
        assert abs(law.mean()) <= ATOL

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
        law = m.scaled_law_at(None)
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
        assert abs(law.mean()) <= ATOL
        assert law.second_moment() == pytest.approx(1.0, abs=1e-12)
        # scaled variance is 1/n
        assert m.scaled_law_at(None).second_moment() == pytest.approx(0.01)

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
        m = make_heavy_left(100, 0.5, 8)
        cert = certify(m)
        assert m.law_at(None).log_exp_moment_negative_part(cert.K) > math.log(1e12)

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

    def test_bracket_nondecreasing(self):
        m = make_regime_switch(60, 0.3)
        path = sample_tilted_path(m, 0.0, np.random.default_rng(2)).path
        assert np.all(np.diff(path.bracket) > 0.0)
        assert abs(path.bracket[-1] - 1.0) <= m.variance_deviation() / m.n + 1e-12

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

    def test_roundtrip_serialization(self):
        for m in (make_rademacher(30), make_heavy_left(30, 0.4, 5),
                  make_regime_switch(30, 0.2)):
            m2 = model_from_spec(m.to_spec())
            assert m2.name == m.name and m2.n == m.n
            assert list(m2.reachable_laws()) == list(m.reachable_laws())

    def test_certificate_json(self):
        import json
        cert = certify(make_rademacher(100))
        doc = json.loads(cert.to_json())
        assert doc["eps_n"] == cert.eps_n and doc["delta_n"] == cert.delta_n
        assert doc["delta_n_from_L"] == cert.L / 10.0


class TestSamplePath:
    def test_deterministic_given_seed(self):
        m = make_regime_switch(40, 0.3)
        p1 = sample_tilted_path(m, 0.0, np.random.default_rng(9)).path
        p2 = sample_tilted_path(m, 0.0, np.random.default_rng(9)).path
        assert np.array_equal(p1.increments, p2.increments)

    def test_increment_sum_identity(self):
        m = make_rademacher(10)
        p = sample_tilted_path(m, 0.0, np.random.default_rng(1)).path
        assert np.allclose(np.diff(p.partial_sums), p.increments)
        assert abs(p.bracket[-1] - 1.0) < 1e-12

    def test_all_plus_path_value(self):
        # forced: ten up-moves give X_10 = sqrt(10)
        m = make_rademacher(10)
        assert 10 * m.scaled_law_at(None).values.max() == pytest.approx(math.sqrt(10))

    @settings(deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_terminal_matches_path_space(self, seed):
        # vectorized sampler and path sampler agree on the support lattice
        m = make_rademacher(9)
        batch = m.simulate_terminal(4, np.random.default_rng(seed))
        lattice = (2 * np.arange(10) - 9) / 3.0
        assert np.all(np.isin(np.round(batch.x, 9), np.round(lattice, 9)))
