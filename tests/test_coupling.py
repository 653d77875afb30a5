
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import binom, norm

from mdmart.coupling import ExactBinomialQuantile, coupling_tail_report


def quantile(n, s):
    """H(s) for one s, through the batch evaluator."""
    return float(ExactBinomialQuantile(n).evaluate_batch(np.array([s]))[0])


def coupled(n, z):
    """The coupled lattice value w = H(Phi(z)) for one z."""
    return quantile(n, float(norm.cdf(z)))


class TestExactQuantile:
    def test_two_atom_law(self):
        assert quantile(1, 0.25) == -1.0  # F(-1) = .5 >= .25
        assert quantile(1, 0.75) == 1.0

    def test_n4_median(self):
        # F(0) = 11/16 >= .5 while F(-1) = 5/16 < .5
        assert quantile(4, 0.5) == 0.0

    def test_rejects_bad_s(self):
        q = ExactBinomialQuantile(4)
        for s in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                q.evaluate_batch(np.array([0.5, s]))

    @given(st.floats(0.001, 0.999), st.floats(0.001, 0.999))
    def test_nondecreasing(self, s1, s2):
        lo, hi = sorted((s1, s2))
        assert quantile(9, lo) <= quantile(9, hi)


class TestCouple:
    def test_sign_coupling_n1(self):
        assert coupled(1, -0.5) == -1.0
        assert coupled(1, 0.5) == 1.0
        assert coupled(1, 0.0) == -1.0  # Phi(0) = .5 and F(-1) = .5: inf rule

    @given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_monotone_in_z(self, z1, z2):
        lo, hi = sorted((z1, z2))
        assert coupled(16, lo) <= coupled(16, hi)

    def test_atom_reproduction_n6(self):
        probs = ExactBinomialQuantile(6).atom_probabilities()
        exact = binom.pmf(np.arange(7), 6, 0.5)
        assert np.max(np.abs(probs - exact)) < 1e-12


class TestTailReport:
    def test_reports(self):
        reports = [coupling_tail_report(n, 100000, 42) for n in (100, 400, 1600)]
        for r in reports:
            assert r.tail_slope < 0.0
            assert 0.0 < r.D_hat
            assert 0.0 < r.frac_event <= 1.0
        ds = [r.D_hat for r in reports]
        assert max(ds) / min(ds) < 2.0

    def test_determinism(self):
        a = coupling_tail_report(100, 20000, 9)
        b = coupling_tail_report(100, 20000, 9)
        assert a.D_hat == b.D_hat and a.tail_slope == b.tail_slope

    def test_small_budget_rejected(self):
        with pytest.raises(ValueError):
            coupling_tail_report(100, 10, 0)
