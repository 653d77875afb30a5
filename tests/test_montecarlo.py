import pytest

from mdmart.bounds import BoundParams
from mdmart.models import make_heavy_left, make_rademacher, make_regime_switch
from mdmart.montecarlo import (MAX_PATHS, enumerate_terminal,
                               estimate_tail_plain, estimate_tail_tilted,
                               exact_tail_by_enumeration,
                               is_expectation_by_enumeration, mdp_scan,
                               rademacher_exact_tail, ratio_report)
from mdmart.tilt import choose_tilt
from test_models import SignSwitch


def walk_paths(model, lam):
    """(P_lam(path), X_n, log weight) of every path, depth first, atom 0
    first: the recursive walk that the level-by-level enumeration replaced."""
    table, tilted, paths = model.table, model.tilted_laws(lam), []

    def walk(step, s, prob, x, psi):
        if step == model.n:
            paths.append((prob, x, -lam * x + psi))
            return
        tl = tilted[table.law_of[s]]
        for a, (v, p) in enumerate(tl.atoms):
            walk(step + 1, table.T[s, a], prob * p, x + v, psi + tl.step_log_mgf)

    walk(0, 0, 1.0, 0.0, 0.0)
    return paths


class TestExactOracles:
    def test_binomial_tail_values(self):
        # P(X_10 > 0) = P(Bin(10, 1/2) >= 6) = 386/1024
        assert rademacher_exact_tail(10, 0.0) == pytest.approx(386.0 / 1024.0)
        assert rademacher_exact_tail(4, 10.0) == 0.0
        assert rademacher_exact_tail(4, -10.0) == 1.0

    def test_enumeration_matches_binomial(self):
        m = make_rademacher(10)
        # off-lattice thresholds: at a lattice point the float sum of the
        # increments is not exactly zero and the strict inequality flips
        for x in (0.05, 0.8, 1.5):
            assert exact_tail_by_enumeration(m, x) == pytest.approx(
                rademacher_exact_tail(10, x), abs=1e-14)

    @pytest.mark.parametrize("make", [make_rademacher,
                                      lambda n: make_regime_switch(n, 0.3),
                                      SignSwitch],
                             ids=["rademacher", "regime_switch", "sign_switch"])
    def test_enumeration_is_the_walk(self, make):
        # the same paths in the same order, every float bit for bit: each
        # path's products and sums are taken in step order either way
        for n in range(1, 9):
            for lam in (0.0, 0.5, 1.3):
                got = enumerate_terminal(make(n), lam)
                assert list(zip(*(c.tolist() for c in got))) == walk_paths(make(n), lam)

    def test_enumeration_path_guard(self):
        # heavy_left has 9 atoms, so n = 7 would be 9^7 > MAX_PATHS paths
        assert 9 ** 6 <= MAX_PATHS < 9 ** 7
        assert len(enumerate_terminal(make_heavy_left(6))[0]) == 9 ** 6
        with pytest.raises(ValueError):
            enumerate_terminal(make_heavy_left(7))
        with pytest.raises(ValueError):
            enumerate_terminal(make_rademacher(15))

    def test_importance_identity_enumerated(self):
        for model in (make_rademacher(10), make_regime_switch(10, 0.3)):
            for x in (0.5, 1.2):
                exact = exact_tail_by_enumeration(model, x)
                for lam in (0.0, 0.5, x):
                    est = is_expectation_by_enumeration(model, x, lam)
                    assert abs(est - exact) < 1e-10


class TestPlainEstimator:
    def test_threshold_below_support(self):
        est = estimate_tail_plain(make_rademacher(10), -100.0, 500, 1)
        assert est.p_hat == 1.0

    def test_matches_exact_within_ci(self):
        est = estimate_tail_plain(make_rademacher(10), 0.0, 100000, 2)
        exact = 386.0 / 1024.0
        assert est.ci95[0] <= exact <= est.ci95[1]
        assert abs(est.p_hat - exact) < 4.0 * est.std_err + 1e-9

    def test_determinism(self):
        a = estimate_tail_plain(make_rademacher(50), 1.0, 30000, 7)
        b = estimate_tail_plain(make_rademacher(50), 1.0, 30000, 7)
        assert a.p_hat == b.p_hat and a.ci95 == b.ci95


class TestTiltedEstimator:
    def test_zero_lambda_reduces_to_plain(self):
        m = make_rademacher(30)
        t = estimate_tail_tilted(m, 0.5, 0.0, 20000, 3)
        p = estimate_tail_plain(m, 0.5, 20000, 3)
        assert t.p_hat == pytest.approx(p.p_hat, abs=1e-12)

    def test_matches_exact(self):
        m = make_rademacher(20)
        sel = choose_tilt(m, 2.0)
        est = estimate_tail_tilted(m, 2.0, sel.lam, 100000, 7)
        exact = rademacher_exact_tail(20, 2.0)
        assert abs(est.p_hat - exact) <= 3.0 * est.std_err
        assert est.std_err / est.p_hat < 0.01

    def test_ess_flag(self):
        # absurd over-tilt: nearly all weight on a handful of samples
        est = estimate_tail_tilted(make_rademacher(20), 0.0, 25.0, 64, 5)
        assert est.ess < 10.0 and "low_ess" in est.flags

    def test_rejects_bad_args(self):
        m = make_rademacher(10)
        with pytest.raises(ValueError):
            estimate_tail_tilted(m, 1.0, -0.5, 100, 0)
        with pytest.raises(ValueError):
            estimate_tail_plain(m, 1.0, 0, 0)


class TestRatioReport:
    def test_ratio_near_one_large_n(self):
        params = BoundParams(rho=1.0, eps_n=0.02, delta_n=0.0)
        rep = ratio_report(make_rademacher(10 ** 4), [1.0], 50000, 5, params)
        row = rep.rows[0]
        assert abs(row.ratio - 1.0) < 0.1
        assert row.bound_lo <= 1.0 <= row.bound_hi

    def test_csv_determinism(self, tmp_path):
        params = BoundParams(rho=1.0, eps_n=0.1, delta_n=0.0)
        rep1 = ratio_report(make_rademacher(400), [0.5, 1.0], 20000, 11, params)
        rep2 = ratio_report(make_rademacher(400), [0.5, 1.0], 20000, 11, params)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rep1.write_csv(p1, header_comment="run")
        rep2.write_csv(p2, header_comment="run")
        assert p1.read_bytes() == p2.read_bytes()


    def test_rows_keyed_on_seed_and_row(self):
        # row i draws from the streams of (seed, i)
        model = make_rademacher(100)
        params = BoundParams(rho=1.0, eps_n=0.1, delta_n=0.0)
        rep = ratio_report(model, [0.5, 1.0, 1.5], 3000, 5, params)
        for i, row in enumerate(rep.rows):
            lam = choose_tilt(model, row.x).lam
            est = estimate_tail_tilted(model, row.x, lam, 3000, 5, row=i)
            assert (row.p_hat, row.ess, row.seed) == (est.p_hat, est.ess, 5)
        assert len({row.ess for row in rep.rows}) == 3

class TestMdpScan:
    def test_rejects_bad_rule(self):
        with pytest.raises(ValueError):
            mdp_scan(make_rademacher, [100], "n^0.75", 1.0, 1000, 0)
        with pytest.raises(ValueError):
            mdp_scan(make_rademacher, [100], "log n", 1.0, 1000, 0)

    def test_b_zero_limit(self):
        table = mdp_scan(make_rademacher, [10 ** 4], "n^0.25", 0.0, 20000, 1)
        # ln p ~ ln(1/2) and a_n^2 = 100, so the rate is tiny
        assert abs(table[0]["rate"]) < 0.02

    def test_trend_toward_rate(self):
        table = mdp_scan(make_rademacher, [100, 1000, 10000], "n^0.25", 1.0,
                         50000, 2)
        rates = [row["rate"] for row in table]
        assert rates[0] < rates[1] < rates[2] < 0.0
        assert abs(rates[2] - (-0.5)) < 0.1
