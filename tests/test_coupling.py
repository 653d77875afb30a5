import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.special import log_ndtr, ndtri, ndtri_exp
from scipy.stats import binom, norm

from mdmart.coupling import (TAIL_CUT, ExactBinomialQuantile,
                             exact_coupling_report)


def sampled_quantile(n, s):
    """H(s) = inf{x : F(x) >= s} for an array s, by search in the binomial
    CDF: the sampling route the exact report replaced, kept here as its
    independent oracle."""
    k = np.arange(n + 1)
    cdf = binom.cdf(k, n, 0.5)
    cdf[-1] = 1.0
    return ((2.0 * k - n) / math.sqrt(n))[np.searchsorted(cdf, s, side="left")]


def coupled(n, z):
    """The coupled lattice value w = H(Phi(z)) for one z, sampled route."""
    return float(sampled_quantile(n, np.array([norm.cdf(z)]))[0])


def exact_coupled(n, z):
    """w for one z from the exact intervals: values[k] on (z_lower[k], z[k]]."""
    qf = ExactBinomialQuantile(n)
    return float(qf.values[np.searchsorted(qf.z, z, side="left")])


def quantile(n, s):
    """H(s) for one s, by both routes, which must agree."""
    w = exact_coupled(n, float(ndtri(s)))
    assert w == float(sampled_quantile(n, np.array([s]))[0])
    return w


def sample_deviations(n, alpha, size, seed):
    """sqrt(n) |W - Z| / ln n for `size` draws of Z, and the largest
    deviation / (2 (W^2 + 1)) on the event |W| <= alpha sqrt(n)."""
    z = np.random.default_rng(seed).standard_normal(size)
    w = sampled_quantile(n, norm.cdf(z))
    dev = math.sqrt(n) * np.abs(w - z) / math.log(n)
    event = np.abs(w) <= alpha * math.sqrt(n)
    return dev, float(np.max(dev[event] / (2.0 * (w[event] ** 2 + 1.0))))


class TestExactQuantile:
    def test_two_atom_law(self):
        assert quantile(1, 0.25) == -1.0  # F(-1) = .5 >= .25
        assert quantile(1, 0.75) == 1.0

    def test_n4_median(self):
        # F(0) = 11/16 >= .5 while F(-1) = 5/16 < .5
        assert quantile(4, 0.5) == 0.0

    @given(st.floats(0.001, 0.999), st.floats(0.001, 0.999))
    def test_nondecreasing(self, s1, s2):
        lo, hi = sorted((s1, s2))
        assert quantile(9, lo) <= quantile(9, hi)


class TestCouple:
    def test_sign_coupling_n1(self):
        for w in (coupled, exact_coupled):
            assert w(1, -0.5) == -1.0
            assert w(1, 0.5) == 1.0
            assert w(1, 0.0) == -1.0  # Phi(0) = .5 and F(-1) = .5: inf rule

    @given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_monotone_in_z(self, z1, z2):
        lo, hi = sorted((z1, z2))
        assert exact_coupled(16, lo) <= exact_coupled(16, hi)

    @given(st.sampled_from([1, 4, 9, 16, 100]), st.floats(-6.0, 6.0))
    def test_intervals_are_the_sampled_coupling(self, n, z):
        # away from the ends z_k: within rounding of one, Phi(z) rounds onto
        # F_k and the sampled route can take the neighbouring atom
        assume(np.min(np.abs(ExactBinomialQuantile(n).z - z)) > 1e-9)
        assert exact_coupled(n, z) == coupled(n, z)

    def test_atom_reproduction_n6(self):
        probs = ExactBinomialQuantile(6).atom_probabilities()
        exact = binom.pmf(np.arange(7), 6, 0.5)
        assert np.max(np.abs(probs - exact)) < 1e-12

    @pytest.mark.parametrize("n", [400, 1600, 6400])
    def test_atom_probabilities_both_tails(self, n):
        # each z_k from the smaller tail: through F_k alone, the upper half
        # was off by a relative 1.8 at n=400 and 7.7 at n=6400
        probs = ExactBinomialQuantile(n).atom_probabilities()
        pmf = binom.pmf(np.arange(n + 1), n, 0.5)
        on = pmf > 1e-200
        assert on[:n // 2].sum() == on[n // 2 + 1:].sum() > 0
        assert np.max(np.abs(probs[on] / pmf[on] - 1.0)) <= 1e-9


class TestTailReport:
    def test_reports(self):
        reports = [exact_coupling_report(n) for n in (100, 400, 1600)]
        for r in reports:
            assert r.tail_slope < 0.0
            assert 0.0 < r.D
            assert 0.0 < r.frac_event <= 1.0
        ds = [r.D for r in reports]
        assert max(ds) / min(ds) < 2.0

    def test_determinism(self):
        a = exact_coupling_report(100)
        b = exact_coupling_report(100)
        assert a.D == b.D and a.tail_slope == b.tail_slope

    def test_bad_alpha_rejected(self):
        # at alpha >= 1 the end atoms +-sqrt(n), whose z-intervals are
        # unbounded, lie on the event and D is infinite
        for alpha in (0.0, -1.0, 1.0, 1.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                exact_coupling_report(100, alpha)
        with pytest.raises(ValueError):
            exact_coupling_report(1)

    def test_finite_where_tails_underflow(self):
        # F_k rounds to 1 inside the event at n=6400, and at alpha = 0.95 the
        # event reaches atoms whose tail mass underflows to 0
        for n, alpha in ((6400, 0.125), (1600, 0.95)):
            r = exact_coupling_report(n, alpha)
            assert math.isfinite(r.D) and 0.0 < r.D
            assert math.isfinite(r.tail_slope)

    def test_deep_tail_quantiles(self):
        # where F_k or 1 - F_k underflows, z_k still has Phi(z_k) = F_k: held
        # in log space to a log tail summed here from lgamma with fsum
        n = 1600
        qf = ExactBinomialQuantile(n)
        log_pmf = [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                   - n * math.log(2.0) for k in range(n + 1)]

        def log_sum(terms):
            top = max(terms)
            return top + math.log(math.fsum(math.exp(t - top) for t in terms))

        deep = [k for k in range(n) if log_pmf[k] < -720.0]
        assert len(deep) > 2 * 40
        for k in deep:
            if k < n // 2:
                want, got = log_sum(log_pmf[:k + 1]), log_ndtr(qf.z[k])
            else:
                want, got = log_sum(log_pmf[k + 1:]), log_ndtr(-qf.z[k])
            assert abs(got - want) <= 1e-10 * abs(want), k

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 11, 1600, 6400, 6401])
    def test_half_lattice_evaluation(self, n):
        # z and the tail atoms are bit for bit those of F_k, 1 - F_k and
        # log pmf evaluated on every atom
        k = np.arange(n + 1)
        cdf, sf = binom.cdf(k, n, 0.5), binom.sf(k, n, 0.5)
        lower = cdf < 0.5
        tail = np.where(lower, cdf, sf)
        z = ndtri(tail)
        deep = tail < np.finfo(float).tiny
        logpmf = binom.logpmf(k, n, 0.5)
        log_sf = np.append(np.logaddexp.accumulate(logpmf[::-1])[-2::-1], -math.inf)
        log_tail = np.where(lower, np.logaddexp.accumulate(logpmf), log_sf)
        z[deep] = ndtri_exp(log_tail[deep])
        z = np.where(lower, z, -z)
        z[-1] = math.inf
        qf = ExactBinomialQuantile(n)
        assert qf.z.tobytes() == z.tobytes()
        at_or_above = np.concatenate(([1.0], sf[:-1]))
        cut = TAIL_CUT / 2.0
        assert qf._tail_atoms.tolist() == np.flatnonzero(
            (cdf >= cut) & (at_or_above >= cut)).tolist()

    def test_tail_cut_is_bounded(self):
        # the atoms cut from the tail sums carry at most TAIL_CUT in all
        qf = ExactBinomialQuantile(1600)
        mass_cut = np.delete(qf.atom_probabilities(), qf._tail_atoms).sum()
        assert 0.0 < mass_cut <= TAIL_CUT
        ts = np.linspace(0.0, 0.3, 7)
        cut = qf.deviation_tail(ts)
        qf._tail_atoms = np.arange(1601)
        full = qf.deviation_tail(ts)
        # the two sums also round apart by a few ulps of 1
        assert np.all(np.abs(full - cut) <= mass_cut + 4e-16)
        assert abs(full[0] - 1.0) <= 1e-15

    @pytest.mark.parametrize("n", [100, 400, 1600])
    def test_exact_against_sampling(self, n):
        # 10^6 draws of the coupled pair: the sampled D approaches the exact
        # sup from below, and each sampled tail fraction lies within 4
        # binomial SE of the exact tail
        size = 10 ** 6
        dev, d_sampled = sample_deviations(n, 0.125, size, seed=n)
        qf = ExactBinomialQuantile(n)
        d_exact = exact_coupling_report(n, 0.125).D
        assert 0.99 * d_exact <= d_sampled <= d_exact
        ts = (0.05, 0.1, 0.15, 0.2)
        for t, p in zip(ts, qf.deviation_tail(ts)):
            frac = np.count_nonzero(dev > t) / size
            assert abs(frac - p) <= 4.0 * math.sqrt(p * (1.0 - p) / size), (t, frac, p)
