import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mdmart.models import (ConditionalLaw, IIDModel, make_heavy_left,
                           make_rademacher, make_regime_switch)
from mdmart.montecarlo import enumerate_terminal
from mdmart.tilt import (SaddleError, choose_tilt, solve_saddle_lower,
                         solve_saddle_upper)


def two_point(a, b):
    p = -b / (a - b)
    return ConditionalLaw(((a, p), (b, 1.0 - p)))


def tilted(law, lam):
    """(values, probs, log mgf) of `law` tilted by lam: the law arrays of a
    one-step model, whose scale 1/sqrt(n) is 1."""
    values, probs, log_mgf = IIDModel("law", 1, 1.0, law).law_arrays(lam)
    return values[0], probs[0], log_mgf[0]


def mean(values, probs):
    return math.fsum((probs * values).tolist())


class TestTiltLaw:
    def test_identity_tilt(self):
        law = two_point(1.0, -1.0)
        values, probs, log_mgf = tilted(law, 0.0)
        assert list(zip(values.tolist(), probs.tolist())) == list(law.atoms)
        assert log_mgf == 0.0

    def test_rademacher_closed_form(self):
        lam = 0.8
        values, probs, log_mgf = tilted(two_point(1.0, -1.0), lam)
        p_plus = probs[values == 1.0][0]
        assert p_plus == pytest.approx(math.exp(lam) / (math.exp(lam) + math.exp(-lam)))
        assert log_mgf == pytest.approx(math.log(math.cosh(lam)))

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            tilted(two_point(1.0, -1.0), -0.1)

    @given(st.floats(0.1, 5.0), st.floats(-5.0, -0.1), st.floats(0.01, 3.0))
    def test_tilted_mean_positive(self, a, b, lam):
        values, probs, _ = tilted(two_point(a, b), lam)
        assert mean(values, probs) > 0.0

    def test_drift_closed_form_and_monotone(self):
        a = 0.7
        law = two_point(a, -a)
        lams = np.linspace(0.0, 4.0, 25)
        drifts = [mean(*tilted(law, float(l))[:2]) for l in lams]
        assert drifts[0] == 0.0
        assert drifts == sorted(drifts)
        for l, d in zip(lams, drifts):
            assert d == pytest.approx(a * math.tanh(l * a), abs=1e-14)


class TestTiltedPath:
    def test_zero_lambda_weight(self):
        for m in (make_rademacher(12), make_regime_switch(12, 0.3)):
            batch = m.simulate_terminal(256, np.random.default_rng(0), 0.0)
            assert np.all(batch.log_weight == 0.0)

    def test_rademacher_psi_and_drift(self):
        # Psi_n and the summed drift of the tilted step law, n steps of it
        n, lam = 15, 0.7
        values, probs, log_mgf = make_rademacher(n).law_arrays(lam)
        assert n * log_mgf[0] == pytest.approx(
            n * math.log(math.cosh(lam / math.sqrt(n))))
        assert n * mean(values[0], probs[0]) == pytest.approx(
            math.sqrt(n) * math.tanh(lam / math.sqrt(n)))

    def test_weight_identity(self):
        # the weight e^{-lam X_n + Psi_n} is dP/dP_lam on every path, so its
        # P_lam-mean is exactly 1 on a state-dependent model
        prob, _, lw = enumerate_terminal(make_regime_switch(12, 0.3), 1.1)
        assert math.fsum(prob * np.exp(lw)) == pytest.approx(
            1.0, abs=1e-12)


class TestSaddle:
    def test_trivial_reduction(self):
        # eps = 0 leaves lam (1 +- delta^2) = x
        for x in (0.0, 0.7, 3.0):
            for delta in (0.0, 0.5):
                assert solve_saddle_upper(x, 0.5, 0.0, delta).lam == pytest.approx(
                    x / (1.0 + delta * delta), rel=1e-15)
                assert solve_saddle_lower(x, 0.5, 0.0, delta).lam == pytest.approx(
                    x / (1.0 - delta * delta), rel=1e-15)

    def test_quadratic_oracle(self):
        # rho=1, eps=0.1, delta=0, c=6: lam + 0.6 lam^2 = 1
        s = solve_saddle_upper(1.0, 1.0, 0.1, 0.0, c=6.0)
        root = (-1.0 + math.sqrt(1.0 + 2.4)) / 1.2
        assert s.lam == pytest.approx(root, abs=1e-12)
        assert s.equation_residual < 1e-12 * 2.0

    def test_zero_target(self):
        # x = 0 is a root for every delta, also at delta = 1, where the lower
        # equation's linear coefficient 1 - delta^2 vanishes
        for delta in (0.0, 0.5, 1.0, 2.0):
            for solve in (solve_saddle_upper, solve_saddle_lower):
                s = solve(0.0, 1.0, 0.1, delta)
                assert s.lam == 0.0 and s.equation_residual == 0.0

    def test_ordering(self):
        # the first case, then the benchmark's sweep; every residual is
        # recomputed here from the equation itself
        delta, c = 0.05, 6.0
        sweep = [0.2 * i for i in range(1, 21)]
        for rho, eps, xs in ((1.0, 0.1, (0.05, 0.2, 0.35)),
                             (1.0, 0.01, sweep), (0.5, 1e-4, sweep)):
            for x in xs:
                up = solve_saddle_upper(x, rho, eps, delta)
                lo = solve_saddle_lower(x, rho, eps, delta)
                assert up.lam <= x <= lo.lam
                for s, sign in ((up, 1.0), (lo, -1.0)):
                    g = (s.lam * (1.0 + sign * delta * delta)
                         + sign * c * s.lam ** (1.0 + rho) * eps ** rho - x)
                    assert s.lam > 0.0 and abs(g) < 1e-12 * (1.0 + x)
                    assert s.equation_residual < 1e-12 * (1.0 + x)

    def test_lower_no_root_reported(self):
        with pytest.raises(SaddleError):
            solve_saddle_lower(1.0, 1.0, 0.1, 0.0, c=6.0)
        with pytest.raises(SaddleError):
            solve_saddle_lower(1.0, 1.0, 0.1, 1.0)

    def test_residual_scale(self):
        s = solve_saddle_upper(250.0, 0.5, 0.01, 0.2)
        assert s.equation_residual < 1e-12 * 251.0


class TestChooseTilt:
    def test_zero_target(self):
        sel = choose_tilt(make_rademacher(50), 0.0)
        assert sel.lam == 0.0 and sel.converged

    def test_rademacher_closed_form(self):
        n, x = 100, 2.0
        sel = choose_tilt(make_rademacher(n), x)
        assert sel.converged
        assert sel.lam == pytest.approx(math.sqrt(n) * math.atanh(x / math.sqrt(n)),
                                        abs=1e-8)

    def test_boundary_fallback(self):
        sel = choose_tilt(make_rademacher(100), 10.0)  # x = sqrt(n): unreachable
        assert not sel.converged and sel.method == "fallback"
        assert sel.lam == 10.0

    @pytest.mark.parametrize("model, x, lam", [
        (make_rademacher(400), 3.0, "0x1.82eb656680ca0p+1"),
        (make_heavy_left(1600, 0.5, 8), 0.5, "0x1.229a22003aa99p-1"),
        (make_heavy_left(1600, 0.5, 8), 1.0, "0x1.3496a1df49189p+0"),
        (make_heavy_left(1600, 0.5, 8), 1.5, "0x1.e67bcc7a10514p+0"),
        (make_heavy_left(1600, 0.5, 8), 2.0, "0x1.532cdf2f2f80fp+1")],
        ids=["rademacher-3", "heavy_left-0.5", "heavy_left-1", "heavy_left-1.5",
             "heavy_left-2"])
    def test_root_pinned(self, model, x, lam):
        # the root bit for bit: any change to the tilted laws' arithmetic or
        # to the drift sum shows here
        sel = choose_tilt(model, x)
        assert sel.converged and sel.lam.hex() == lam

    def test_non_iid_fallback(self):
        sel = choose_tilt(make_regime_switch(100, 0.3), 1.5)
        assert sel.method == "fallback" and sel.lam == 1.5
