import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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


def array_check(x, rho):
    """The remainder check as one array formula, every temporary fresh:
    both remainders on expm1, the series on the |x| < 1e-4 mask."""
    small = np.abs(x) < 1e-4
    xs = x[small]
    r1 = x * (np.expm1(x) - x)
    r1[small] = xs * (xs * xs / 2.0 + xs ** 3 / 6.0 + xs ** 4 / 24.0)
    r2 = np.expm1(x) - x - 0.5 * x * x
    r2[small] = xs ** 3 / 6.0 + xs ** 4 / 24.0 + xs ** 5 / 120.0
    envelope = np.abs(x) ** (2.0 + rho) * np.exp(np.maximum(x, 0.0))
    ok = ((np.abs(r1) <= 2.0 * envelope * (1.0 + 1e-12))
          & (np.abs(r2) <= envelope * (1.0 + 1e-12)))
    return ok | (x == 0.0)


def suite_draws(seed, samples):
    """The first `samples` (x, rho) pairs the remainder suite checks at
    `seed` with a budget of `samples`."""
    rng = seeded_stream(seed)
    xs = rng.uniform(-50.0, 50.0, samples)
    rhos = rng.uniform(0.0, 1.0, samples)
    rhos[rhos == 0.0] = 1.0
    return xs, rhos


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

    @pytest.mark.parametrize("x, rho, eps, delta, c, want", [
        # 2^3 0.01 + 2^2 0.1^2 + 3 (0.01 ln 100 + 0.1) = 0.42 + 0.06 ln 10
        (2.0, 1.0, 0.01, 0.1, 1.0, 0.5581551055796428),
        # 3^2.5 0.04^0.5 + 3^2 0.2^2 + 4 (0.04^0.5 + 0.2) = 1.8 sqrt(3) + 1.96
        (3.0, 0.5, 0.04, 0.2, 1.0, 5.077691453623979),
        # eps clamped to 1/2: 1 + 0 + 2 (0.5 ln 2) = 1 + ln 2
        (1.0, 1.0, 1.0, 0.0, 1.0, 1.6931471805599454),
        # x = 0 leaves c (eps^rho + delta) = 2 (0.2 + 0.2)
        (0.0, 0.5, 0.04, 0.2, 2.0, 0.8)])
    def test_pinned_values(self, x, rho, eps, delta, c, want):
        # hand-computed from c (x^{2+rho} eps^rho + x^2 delta^2 + (1 + x)
        # (eps_tilde + delta)); each term moves some value when its power
        # or its constant changes
        p = bounds.BoundParams(rho=rho, eps_n=eps, delta_n=delta, c=c)
        assert bounds.thm21_rhs(x, p) == pytest.approx(want, rel=1e-13)

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

    @pytest.mark.parametrize("x, n, M, L, want", [
        # x L / (3 sqrt(n)) = 1, so the exponent is -9 / 4
        (3.0, 100, 0.0, 10.0, 0.21079844912372867),
        # M / n = 1 and x L / (3 sqrt(n)) = 1: the exponent is -4 / 6
        (2.0, 4, 4.0, 3.0, 1.026834238065184),
        # x L / (3 sqrt(n)) = 1: the exponent is -1 / 4
        (1.0, 9, 0.0, 9.0, 1.5576015661428098)])
    def test_pinned_values(self, x, n, M, L, want):
        # hand-computed from 2 exp{-x^2 / (2 (1 + M/n + x L / (3 sqrt(n))))}
        assert bounds.bernstein_tail_bound(x, n, M, L) == pytest.approx(want, rel=1e-13)

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
        xs, rhos = (a[:10 ** 4] for a in suite_draws(0, 10 ** 6))
        assert bounds.check_remainder_bounds(xs, rhos).tolist() == [
            reference_check(float(x), float(r)) for x, r in zip(xs, rhos)]

    # ±0, the smallest subnormal, both sides of the series cut and the ends
    # of the suite's range; rho = 4 lies outside the moment range, where
    # the bounds fail near 0, so the verdicts are not all True
    STRESS = np.array([0.0, 5e-324, 5e-5, math.nextafter(1e-4, 0.0), 1e-4,
                       math.nextafter(1e-4, 1.0), 1.0, 50.0])

    @pytest.mark.parametrize("rho", [1e-300, 0.5, 1.0, 4.0])
    def test_buffered_matches_array_formula_on_stress(self, rho):
        x = np.concatenate((self.STRESS, -self.STRESS))
        expected = array_check(x, np.full(x.size, rho))
        assert expected.all() == (rho <= 1.0)
        # scratch wider than the slice and full of garbage, then reused
        work = bounds.remainder_work(x.size + 3)
        for w in work:
            w.fill(np.nan if w.dtype == float else True)
        for _ in range(2):
            before = x.copy()
            ok = bounds.check_remainder_bounds(x, np.full(x.size, rho), work)
            assert ok.tolist() == expected.tolist()
            assert x.tobytes() == before.tobytes()
        scalar = bounds.check_remainder_bounds(x, rho, work)
        assert scalar.tolist() == array_check(x, rho).tolist()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_buffered_matches_array_formula_on_suite_draws(self, seed):
        # the first 1e5 pairs the suite checks, as one slice and as slices
        # through one set of scratch; at rho + 3 some of them fail
        xs, rhos = suite_draws(seed, 10 ** 5)
        for shift in (0.0, 3.0):
            rho = rhos + shift
            expected = array_check(xs, rho)
            assert expected.all() == (shift == 0.0)
            assert bounds.check_remainder_bounds(xs, rho).tolist() == expected.tolist()
            work = bounds.remainder_work(REMAINDER_SLICE)
            sliced = [bounds.check_remainder_bounds(
                xs[i:i + REMAINDER_SLICE], rho[i:i + REMAINDER_SLICE], work).copy()
                for i in range(0, xs.size, REMAINDER_SLICE)]
            assert np.concatenate(sliced).tolist() == expected.tolist()

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
    # one slice and a pair past it, and 65537 and 131075, which end a pair
    # or three past a slice boundary for any power-of-two slice up to 65536
    @pytest.mark.parametrize("samples", [1, 3, 4, 5, REMAINDER_SLICE + 1,
                                         65537, 131075])
    def test_checks_the_unsliced_draws(self, monkeypatch, samples, seed):
        # the x's are the first `samples` doubles of the seed's stream and
        # the rho's the next `samples`, checked pair by pair in slices
        seen = []
        check = bounds.check_remainder_bounds

        def record(xs, rhos, work):
            seen.append((xs.copy(), rhos.copy()))
            return check(xs, rhos, work)

        monkeypatch.setattr(bounds, "check_remainder_bounds", record)
        assert verify.suite_remainder_inequalities(samples, seed)[1]
        xs, rhos = suite_draws(seed, samples)
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

    def test_page_faults_do_not_grow_with_slices(self):
        # every slice is checked in buffers allocated once per call, so a
        # budget of many slices faults in no more pages than one of two.
        # Whether freed arrays go back to the kernel depends on what the
        # process allocated before, so this is measured in a fresh one, as
        # `mdmart verify` runs, after a first call has warmed it.
        pytest.importorskip("resource")
        code = (
            "import resource\n"
            "from mdmart.verify import REMAINDER_SLICE, suite_remainder_inequalities\n"
            "def minor_faults(samples):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    suite_remainder_inequalities(samples)\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
            "minor_faults(2 * REMAINDER_SLICE)\n"
            "print(minor_faults(2 * REMAINDER_SLICE), minor_faults(10 ** 6))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(verify.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        two, many = map(int, out.split())
        assert many - two < 200, (two, many)
