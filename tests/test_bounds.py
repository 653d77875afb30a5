import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mdmart import bounds, verify
from mdmart.montecarlo import seeded_stream
from mdmart.verify import REMAINDER_SLICE


def reference_remainders(x):
    """x(e^x-1-x) and e^x-1-x-x^2/2 one scalar at a time on math.expm1,
    by series below |x| = 1e-4."""
    if abs(x) < 1e-4:
        return (x * (x * x / 2.0 + x ** 3 / 6.0 + x ** 4 / 24.0),
                x ** 3 / 6.0 + x ** 4 / 24.0 + x ** 5 / 120.0)
    return x * (math.expm1(x) - x), math.expm1(x) - x - 0.5 * x * x


def reference_check(x, rho):
    if x == 0.0:
        return True
    r1, r2 = reference_remainders(x)
    envelope = abs(x) ** (2.0 + rho) * math.exp(max(x, 0.0))
    return (abs(r1) <= 2.0 * envelope * (1.0 + 1e-12)
            and abs(r2) <= envelope * (1.0 + 1e-12))


class TestGaussianTail:
    def test_symmetry_values(self):
        assert bounds.gaussian_tail(0.0) == pytest.approx(0.5)
        assert bounds.gaussian_tail(1.0) == pytest.approx(0.15865525393145707,
                                                          rel=1e-14)

    @given(st.floats(-8.0, 8.0))
    def test_reflection(self, x):
        assert bounds.gaussian_tail(-x) == pytest.approx(
            1.0 - bounds.gaussian_tail(x), abs=1e-14)

    def test_far_tail_accuracy(self):
        # erfc keeps relative accuracy where 1 - cdf would cancel
        assert bounds.gaussian_tail(10.0) == pytest.approx(7.61985302416e-24,
                                                           rel=1e-10)


class TestSandwich:
    def test_at_zero(self):
        lo, hi = bounds.gaussian_sandwich(0.0)
        assert lo == pytest.approx(0.3989422804014327)
        assert hi == pytest.approx(0.5641895835477563)
        assert lo <= 0.5 <= hi

    def test_dense_grid(self):
        for x in np.arange(0.0, 10.0, 0.01):
            lo, hi = bounds.gaussian_sandwich(float(x))
            t = bounds.gaussian_tail(float(x))
            assert lo <= t <= hi

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bounds.gaussian_sandwich(-0.5)


class TestThm21Rhs:
    def test_zero_case(self):
        p = bounds.BoundParams(rho=0.5, eps_n=0.0, delta_n=0.0)
        assert bounds.thm21_rhs(0.0, p) == 0.0

    def test_hand_arithmetic(self):
        p = bounds.BoundParams(rho=0.5, eps_n=0.1, delta_n=0.1, c=1.0)
        assert bounds.thm21_rhs(0.0, p) == pytest.approx(math.sqrt(0.1) + 0.1)

    def test_rho_one_log_factor(self):
        p = bounds.BoundParams(rho=1.0, eps_n=0.1, delta_n=0.0)
        assert p.eps_tilde == pytest.approx(0.1 * math.log(10.0))

    def test_eps_clamped_above_half(self):
        p = bounds.BoundParams(rho=1.0, eps_n=0.9, delta_n=0.0)
        assert p.eps_tilde == pytest.approx(0.5 * math.log(2.0))

    @given(st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    def test_monotone_in_x(self, x1, x2):
        p = bounds.BoundParams(rho=0.7, eps_n=0.05, delta_n=0.02)
        lo, hi = sorted((x1, x2))
        assert bounds.thm21_rhs(lo, p) <= bounds.thm21_rhs(hi, p) + 1e-12

    @given(st.floats(0.0, 0.5), st.floats(0.0, 0.5))
    def test_monotone_in_eps(self, e1, e2):
        lo, hi = sorted((e1, e2))
        a = bounds.thm21_rhs(1.0, bounds.BoundParams(rho=0.7, eps_n=lo, delta_n=0.1))
        b = bounds.thm21_rhs(1.0, bounds.BoundParams(rho=0.7, eps_n=hi, delta_n=0.1))
        assert a <= b + 1e-12

    def test_rejects_bad_constants(self):
        for kw in ({"c": 0.0}, {"c": math.nan}, {"eps_n": math.nan}, {"rho": 0.0}):
            with pytest.raises(ValueError):
                bounds.BoundParams(**{"rho": 1.0, "eps_n": 0.1, "delta_n": 0.0, **kw})

    def test_envelope_brackets_one(self):
        p = bounds.BoundParams(rho=1.0, eps_n=0.1, delta_n=0.05)
        lo, hi = bounds.ratio_envelope(1.3, p)
        assert lo <= 1.0 <= hi

    def test_envelope_vacuous_past_overflow(self):
        p = bounds.BoundParams(rho=1.0, eps_n=0.1, delta_n=1.0)
        assert bounds.thm21_rhs(20.0, p) > 710.0
        assert bounds.ratio_envelope(20.0, p) == (0.0, math.inf)


class TestBerryEsseen:
    def test_exact_sup_distance_decreases(self):
        d = [bounds.rademacher_sup_distance(n) for n in (100, 1000, 10000)]
        assert d[0] > d[1] > d[2]
        # sup distance for the lattice walk behaves like c / sqrt(n)
        slope = np.polyfit(np.log([100, 1000, 10000]), np.log(d), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)


class TestBernsteinBound:
    def test_vacuous_at_zero(self):
        assert bounds.bernstein_tail_bound(0.0, 50, 1.0, 1.0) == 2.0

    def test_large_n_limit(self):
        val = bounds.bernstein_tail_bound(2.0, 10 ** 9, 0.0, 1.0)
        assert val == pytest.approx(2.0 * math.exp(-2.0), rel=1e-4)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            bounds.bernstein_tail_bound(-1.0, 10, 0.0, 1.0)


class TestRemainderInequalities:
    @given(st.floats(-50.0, 50.0), st.floats(0.01, 1.0))
    def test_pointwise(self, x, rho):
        assert bounds.check_remainder_bounds(x, rho)

    def test_array_matches_reference_on_edges(self):
        # x = 0, the series branch, both sides of its cut at |x| = 1e-4, and
        # the ends of the suite's range, each at a tiny, middle and unit rho
        cut = [math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0)]
        xs = np.array([5e-5] + cut + [50.0])
        xs = np.concatenate(([0.0], xs, -xs))
        x, rho = (a.ravel() for a in np.meshgrid(xs, [1e-9, 0.5, 1.0]))
        assert bounds.check_remainder_bounds(x, rho).tolist() == [
            reference_check(float(a), float(r)) for a, r in zip(x, rho)]
        # numpy's and math's expm1 may differ in the last bits, and just
        # above the cut e^x - 1 - x cancels all but about 1/(2e4) of them
        for a in xs:
            r1, r2 = reference_remainders(float(a))
            assert bounds.taylor_remainder1(a) == pytest.approx(r1, rel=1e-10, abs=0.0)
            assert bounds.taylor_remainder2(a) == pytest.approx(r2, rel=1e-10, abs=0.0)

    def test_array_matches_reference_on_suite_draws(self):
        # the first 1e4 samples verify's remainder suite checks at seed 0
        rng = seeded_stream(0)
        xs = rng.uniform(-50.0, 50.0, 10 ** 6)[:10 ** 4]
        rhos = rng.uniform(0.0, 1.0, 10 ** 6)[:10 ** 4]
        rhos[rhos == 0.0] = 1.0
        assert bounds.check_remainder_bounds(xs, rhos).tolist() == [
            reference_check(float(x), float(r)) for x, r in zip(xs, rhos)]

    def test_small_x_stability(self):
        # the series branch must agree with the direct formula
        for x in (1e-5, -1e-5, 9e-5):
            direct = x * (math.expm1(x) - x)
            assert bounds.taylor_remainder1(x) == pytest.approx(direct, rel=1e-6)


def traced_peak(call):
    """Peak bytes tracemalloc sees while `call` runs; numpy's buffers are
    traced."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRemainderSuite:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("samples", [1, 3, 4, 5, REMAINDER_SLICE + 1,
                                         2 * REMAINDER_SLICE + 3])
    def test_checks_the_unsliced_draws(self, monkeypatch, samples, seed):
        # the x's are the first `samples` doubles of the seed's stream and
        # the rho's the next `samples`, checked pair by pair in slices
        seen = []
        check = bounds.check_remainder_bounds

        def record(xs, rhos):
            seen.append((xs.copy(), rhos.copy()))
            return check(xs, rhos)

        monkeypatch.setattr(bounds, "check_remainder_bounds", record)
        assert verify.suite_remainder_inequalities(samples, seed)[1]
        rng = seeded_stream(seed)
        xs = rng.uniform(-50.0, 50.0, samples)
        rhos = rng.uniform(0.0, 1.0, samples)
        rhos[rhos == 0.0] = 1.0
        assert max(x.size for x, _ in seen) <= REMAINDER_SLICE
        assert np.concatenate([x for x, _ in seen]).tobytes() == xs.tobytes()
        assert np.concatenate([r for _, r in seen]).tobytes() == rhos.tobytes()

    def test_memory_does_not_grow_with_samples(self):
        # the 2e6 doubles of a 1e6 budget would take 16 MB at once
        small = traced_peak(
            lambda: verify.suite_remainder_inequalities(2 * REMAINDER_SLICE))
        peak = traced_peak(lambda: verify.suite_remainder_inequalities(10 ** 6))
        assert peak < 4e6
        assert peak < small + 2e5
