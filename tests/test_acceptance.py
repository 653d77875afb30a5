"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

The pass/fail lines are written straight to the original stdout so they stay
visible under pytest's capture.  Tolerances are pinned here and nowhere else.
"""
import math
import sys
import time

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.stats import binom

from mdmart import bounds, verify
from mdmart.bounds import BoundParams, gaussian_tail, thm21_rhs
from mdmart.coupling import ExactBinomialQuantile, exact_coupling_report
from mdmart.alias import tail_lookup
from mdmart.mixing import (MarkovChainSpec, _completion, berbee_mismatch_probability,
                           beta_by_enumeration, beta_coefficient,
                           beta_two_state_closed_form, covariance_bound_check,
                           mixing_tail_experiment, stationary_dist,
                           two_state_chain)
from mdmart.models import certify, make_rademacher, make_regime_switch
from mdmart.montecarlo import (enumerate_terminal, estimate_tail_plain,
                               estimate_tail_tilted,
                               exact_tail_by_enumeration,
                               is_expectation_by_enumeration, mdp_scan,
                               rademacher_exact_tail)
from mdmart.tilt import choose_tilt
from test_mixing import exact_tails, lattice_map, suffix_blocks, walk_blocks


def report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_1_exact_is_identity():
    """Exhaustive enumeration: IS estimator equals the exact tail to 1e-10
    for two-point models with n <= 12, lambda in {0, 0.5, x}."""
    t0 = time.time()
    worst = 0.0
    for model in (make_rademacher(6), make_rademacher(12),
                  make_regime_switch(6, 0.3), make_regime_switch(12, 0.3)):
        for x in (0.55, 1.15):
            exact = exact_tail_by_enumeration(model, x)
            for lam in (0.0, 0.5, x):
                err = abs(is_expectation_by_enumeration(model, x, lam) - exact)
                worst = max(worst, err)
    elapsed = time.time() - t0
    report(1, worst < 1e-10 and elapsed < 10.0,
           f"max |IS - exact| = {worst:.3g} over 24 cases, {elapsed:.1f}s")


def test_criterion_2_rare_tail_accuracy():
    t0 = time.time()
    m = make_rademacher(20)
    sel = choose_tilt(m, 2.0)
    est = estimate_tail_tilted(m, 2.0, sel.lam, 10 ** 5, 7)
    exact = rademacher_exact_tail(20, 2.0)
    z = abs(est.p_hat - exact) / est.std_err
    rel = est.std_err / est.p_hat
    elapsed = time.time() - t0
    report(2, z <= 3.0 and rel < 0.01 and elapsed < 5.0,
           f"|p_hat - exact| = {z:.2f} SE, relative SE {rel:.4f}, {elapsed:.1f}s")


def _rademacher_tail_moments(n, x, lam, orders):
    """Exact E_lam[(w 1{X_n > x})^k] for the Rademacher walk, k in orders.

    Binomial sums only, independent of mdmart.montecarlo: under P_lam a step
    is +1 with probability e^{lam a} / (2 cosh(lam a)), a = 1/sqrt(n), and a
    path with S up-steps has X_n = (2S - n) a and importance weight
    w = exp(-lam X_n + n log cosh(lam a)).  lam = 0 gives plain sampling.
    """
    a = 1.0 / math.sqrt(n)
    s = np.arange(math.floor((n + x * math.sqrt(n)) / 2.0) + 1, n + 1)
    log_q = binom.logpmf(s, n, 1.0 / (1.0 + math.exp(-2.0 * lam * a)))
    log_w = -lam * (2 * s - n) * a + n * math.log(math.cosh(lam * a))
    return [math.fsum(np.exp(log_q + k * log_w)) for k in orders]


def test_criterion_3_variance_reduction():
    """Tilted vs plain SE at equal budget (rademacher n=400, x=3), held to
    the exact variance of exponential tilting at this target.

    A single exponential tilt of a light-tailed sum is only logarithmically
    efficient, so its SE gain at a fixed x is bounded (about 16x here); see
    "Decision (criterion 3)" in CHANGES.md for the exact computation.
    Checked against an exact binomial oracle, itself first matched to path
    enumeration at n=12:
      (a) choose_tilt's lambda reaches >= 95% of the best single-tilt gain;
      (b) both measured SEs lie within 5 sigma of their exact values, sigma
          from the exact fourth moments;
      (c) both estimates lie within 4 exact SE of the exact tail."""
    n, x, budget, seed = 400, 3.0, 10 ** 6, 11

    oracle_err = 0.0
    for xs in (1.15, x):
        for lam in (0.5, xs):
            prob, xn, lw = enumerate_terminal(make_rademacher(12), lam)
            past = list(zip(prob[xn > xs].tolist(), lw[xn > xs].tolist()))
            for k, exact in zip((1, 2, 3, 4), _rademacher_tail_moments(
                    12, xs, lam, (1, 2, 3, 4))):
                brute = math.fsum(pr * math.exp(k * w) for pr, w in past)
                oracle_err = max(oracle_err, abs(exact - brute) / brute)

    m = make_rademacher(n)
    lam = choose_tilt(m, x).lam
    plain = estimate_tail_plain(m, x, budget, seed)
    tilted = estimate_tail_tilted(m, x, lam, budget, seed)

    def exact_se(var, mu4):
        # SE of the mean, and the SD of its plug-in estimate (delta method)
        se = math.sqrt(var / budget)
        return se, 0.5 * se * math.sqrt((mu4 / var ** 2 - 1.0) / budget)

    p = _rademacher_tail_moments(n, x, 0.0, (1,))[0]
    v = p * (1.0 - p)
    se_p, sd_p = exact_se(v, v * (1.0 - 3.0 * v))
    _, m2, m3, m4 = _rademacher_tail_moments(n, x, lam, (1, 2, 3, 4))
    se_t, sd_t = exact_se(m2 - p * p,
                          m4 - 4.0 * p * m3 + 6.0 * p * p * m2 - 3.0 * p ** 4)

    best = minimize_scalar(
        lambda t: _rademacher_tail_moments(n, x, t, (2,))[0],
        bounds=(0.0, 2.0 * x), method="bounded", options={"xatol": 1e-8})
    g_lam = se_p / se_t
    g_star = math.sqrt(p * (1.0 - p) / (best.fun - p * p))
    gain = plain.std_err / tilted.std_err

    se_z = ((tilted.std_err - se_t) / sd_t, (plain.std_err - se_p) / sd_p)
    bias_z = ((tilted.p_hat - p) / se_t, (plain.p_hat - p) / se_p)
    ok = (oracle_err <= 1e-12
          and g_lam >= 0.95 * g_star                      # (a)
          and all(abs(z) <= 5.0 for z in se_z)            # (b)
          and all(abs(z) <= 4.0 for z in bias_z))         # (c)
    report(3, ok,
           f"SE ratio plain/tilted = {gain:.2f}, exact {g_lam:.2f} at "
           f"lam={lam:.4f}, best {g_star:.2f} at lam={best.x:.3f} "
           f"(need >= 0.95 of best); SE z tilted/plain = "
           f"{se_z[0]:+.2f}/{se_z[1]:+.2f} (<= 5); bias z = "
           f"{bias_z[0]:+.2f}/{bias_z[1]:+.2f} (<= 4); oracle vs "
           f"enumeration {oracle_err:.1e}")


def test_criterion_4_ratio_convergence():
    devs = []
    for i, n in enumerate((100, 10 ** 4)):
        m = make_rademacher(n)
        sel = choose_tilt(m, 1.0)
        est = estimate_tail_tilted(m, 1.0, sel.lam, 2 * 10 ** 5, 21 + i)
        gt = gaussian_tail(1.0)
        ratio = est.p_hat / gt
        ci = 1.96 * est.std_err / gt
        devs.append(max(abs(ratio - 1.0) - ci, 0.0))
    report(4, devs[0] > devs[1] and devs[1] <= 0.1,
           f"CI-adjusted |ratio - 1|: n=100 -> {devs[0]:.4f}, "
           f"n=1e4 -> {devs[1]:.4f}")


def test_criterion_5_implied_constant_stability():
    """sup_x |ln ratio| / RHS(x; c=1) stable within a factor 2 across
    n in {400, 1600, 6400}.

    For rademacher the tails are exact, so the constants are point values.
    For regime_switch the ratio sits so close to 1 that |ln ratio| is below
    Monte Carlo resolution at desk-scale budgets, so stability is checked in
    the confidence-interval sense: the largest lower bound must not exceed
    twice the smallest upper bound."""
    xgrid = (0.5, 1.0, 1.5, 2.0)
    # rademacher: exact binomial tails
    sups = []
    for n in (400, 1600, 6400):
        cert = certify(make_rademacher(n))
        bp = BoundParams(rho=1.0, eps_n=cert.eps_n, delta_n=cert.delta_n)
        sups.append(max(abs(math.log(rademacher_exact_tail(n, x)
                                     / gaussian_tail(x))) / thm21_rhs(x, bp)
                        for x in xgrid))
    rad_factor = max(sups) / min(sups)
    ok_rad = rad_factor <= 2.0

    sup_lo, sup_hi = [], []
    for n in (400, 1600, 6400):
        m = make_regime_switch(n, 0.3)
        cert = certify(m)
        bp = BoundParams(rho=1.0, eps_n=cert.eps_n, delta_n=cert.delta_n)
        lows, highs = [], []
        for i, x in enumerate(xgrid):
            lam = choose_tilt(m, x).lam
            est = estimate_tail_tilted(m, x, lam, 5 * 10 ** 4, 100 + i)
            lnr = abs(math.log(est.p_hat / gaussian_tail(x)))
            half = 1.96 * est.std_err / est.p_hat
            rhs = thm21_rhs(x, bp)
            lows.append(max(lnr - half, 0.0) / rhs)
            highs.append((lnr + half) / rhs)
        sup_lo.append(max(lows))
        sup_hi.append(max(highs))
    ok_rs = max(sup_lo) <= 2.0 * min(sup_hi)
    report(5, ok_rad and ok_rs,
           f"rademacher sup constants {[round(s, 4) for s in sups]} "
           f"(factor {rad_factor:.2f}); regime_switch CI-stable: "
           f"max lower {max(sup_lo):.4f} vs 2 * min upper "
           f"{2 * min(sup_hi):.4f}")


def test_criterion_6_inequality_suites():
    results = verify.run_all(samples=10 ** 6, seed=0)
    failures = [name for name, ok, _ in results if not ok]
    # second-moment bound E[xi^2] <= eps_n^2 for every certified model law
    from mdmart.models import make_heavy_left
    for m in (make_rademacher(400), make_heavy_left(400, 0.5, 8),
              make_regime_switch(400, 0.3)):
        cert = certify(m)
        if (m.second_moments / m.n > cert.eps_n ** 2 * (1 + 1e-12)).any():
            failures.append(f"second_moment:{m.name}")
    report(6, not failures, f"violating suites: {failures or 'none'}")


def test_criterion_7_bernstein_tail():
    m = make_rademacher(100)
    batch = m.simulate_terminal(10 ** 6, np.random.Generator(
        np.random.Philox(key=[13, 0])))
    bad = []
    for x in (0.5, 1.0, 2.0, 3.0):
        p = float(np.mean(np.abs(batch.x) > x))
        se = math.sqrt(p * (1 - p) / batch.x.size)
        # two-sided moment condition holds with M = 0 and L = e for |eta| = 1
        bound = bounds.bernstein_tail_bound(x, 100, 0.0, math.e)
        if p > bound + 3.0 * se:
            bad.append(x)
    report(7, not bad, f"two-sided tail exceeded the bound at x = {bad or 'none'}")


def test_criterion_8_berry_esseen_slope():
    ns = (100, 1000, 10000)
    d = [bounds.rademacher_sup_distance(n) for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(d), 1)[0])
    report(8, abs(slope + 0.5) <= 0.15,
           f"log-log slope of sup|F_n - Phi| = {slope:.3f} (target -0.5 +- 0.15)")


def test_criterion_9_mdp_trend():
    table = mdp_scan(make_rademacher, [100, 1000, 10000], "n^0.25", 1.0,
                     10 ** 5, 3)
    rates = [row["rate"] for row in table]
    monotone = rates[0] < rates[1] < rates[2]
    close = abs(rates[2] - (-0.5)) <= 0.1
    report(9, monotone and close,
           f"(1/a_n^2) ln p = {[round(r, 4) for r in rates]}, target -0.5")


def test_criterion_10_quantile_coupling():
    """The exact coupling report (no sampling): negative tail slopes, and D
    stable within a factor 2 over n in {100, 400, 1600} at alpha = 0.125."""
    probs = ExactBinomialQuantile(6).atom_probabilities()
    atom_err = float(np.max(np.abs(probs - binom.pmf(np.arange(7), 6, 0.5))))
    reports = [exact_coupling_report(n, alpha=0.125) for n in (100, 400, 1600)]
    slopes_neg = all(r.tail_slope < 0.0 for r in reports)
    ds = [r.D for r in reports]
    factor = max(ds) / min(ds)
    report(10, atom_err < 1e-12 and slopes_neg and factor <= 2.0,
           f"atom error {atom_err:.2g}, slopes "
           f"{[round(r.tail_slope, 1) for r in reports]}, D factor {factor:.2f}")


def test_criterion_11_mixing_exactness():
    problems = []
    # two-state closed form vs matrix powers
    for a, b in ((0.2, 0.4), (0.1, 0.1), (0.45, 0.3)):
        P = np.array([[1 - a, a], [b, 1 - b]])
        for n in range(1, 21):
            if abs(beta_coefficient(P, n)
                   - beta_two_state_closed_form(a, b, n)) > 1e-12:
                problems.append("closed_form")
    # brute-force enumeration on random 2-3 state chains
    rng = np.random.default_rng(17)
    for _ in range(10):
        S = int(rng.integers(2, 4))
        P = rng.random((S, S)) + 0.05
        P /= P.sum(axis=1, keepdims=True)
        for n in range(1, 7):
            if abs(beta_coefficient(P, n) - beta_by_enumeration(P, n)) > 1e-10:
                problems.append("brute_force")
    # covariance inequality on >= 1000 enumerated instances
    checked = 0
    for _ in range(70):
        S = int(rng.integers(2, 4))
        P = rng.random((S, S)) + 0.05
        P /= P.sum(axis=1, keepdims=True)
        pi = stationary_dist(P)
        f = rng.standard_normal(S)
        g = rng.standard_normal(S)
        chain = MarkovChainSpec(states=list(range(S)), P=P, f=f - pi @ f)
        for n in range(1, 6):
            for p in (1.5, 2.0, 4.0):
                lhs, rhs, _ = covariance_bound_check(chain, n, f, g, p)
                checked += 1
                if lhs > rhs + 1e-12:
                    problems.append("covariance")
    # Berbee mismatch frequency against the summed-beta bound; blocks are
    # bridged by P^{m+1}, so the bound is (k - 1) beta(m + 1).  At (0.1, 0.1)
    # with m = 1 that bound is 2.88 and cannot fail; at (0.3, 0.3) with m = 5
    # it is 0.0184 against an exact mismatch probability of 0.0078
    mismatches = []
    for a, m in ((0.1, 1), (0.3, 5)):
        chain = two_state_chain(a, a)
        p_mis, se = berbee_mismatch_probability(chain, m, 10, 10 ** 5, 3)
        mismatches.append(round(p_mis, 4))
        if p_mis > 9.0 * beta_coefficient(chain.P, m + 1) + 3.0 * se:
            problems.append("berbee")
    report(11, not problems and checked >= 1000,
           f"{checked} covariance instances, berbee mismatch {mismatches}; "
           f"violations: {problems or 'none'}")


def test_criterion_12_mixing_ratio():
    # each Monte Carlo row is held within 4 exact SE of the exact tail, from
    # a forward pass over (chain state, visits to state 0) along the k
    # blocks; the envelope alone would let a fourfold error through.  The
    # SE is that of plain Monte Carlo, and also the exact SE of the
    # estimator that ran: each path draws a prefix of its blocks and
    # contributes Y, the completion's tail given its total and next start,
    # so E[Y^2] sums the prefix law, from a forward pass over its blocks,
    # times the squared tails, and E[Y] must be the exact tail
    chain = two_state_chain(0.3, 0.3)
    n, alpha, budget, xs = 10 ** 4, 0.3, 5 * 10 ** 4, [0.5, 1.0, 1.5]
    rep, info = mixing_tail_experiment(chain, n, alpha, xs, budget, 9)
    scale = math.sqrt(info["es2"])
    exact = exact_tails(chain, (1, 0), n, alpha, [x * scale for x in xs])
    m, k = info["m"], info["k"]
    blocks = k - suffix_blocks(chain, m, k)[1]
    ls, prefix = walk_blocks(chain, (1, 0), chain.pi, m, blocks)
    a, b = lattice_map(chain, (1, 0), m * blocks)
    state = np.repeat(np.arange(2), ls.size)
    total = np.tile(a * ls + b, 2)
    ok = info["envelope_defined"]
    details = []
    for row, p in zip(rep.rows, exact):
        ci = 3.0 * row.se / row.gauss_tail
        inside = row.bound_lo - ci <= row.ratio <= row.bound_hi + ci
        near = abs(row.p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / budget)
        y = tail_lookup(_completion(chain, m, k)[1], row.x * scale, state, total)
        mean = math.fsum((prefix.ravel() * y).tolist())
        se = math.sqrt(max(math.fsum((prefix.ravel() * y * y).tolist()) - p * p, 0.0) / budget)
        z = (row.p_hat - p) / se if se > 0.0 else math.inf
        ok = ok and inside and near and abs(mean - p) <= 1e-12 and abs(z) <= 4.0
        details.append(f"{row.ratio:.4f} (exact {p / row.gauss_tail:.4f}, "
                       f"E[Y] - p {mean - p:.1e}, z {z:+.2f})")
    report(12, ok, f"ratios {', '.join(details)} within 4 exact SE of either "
                   f"estimator and inside envelope +- CI, tau_n = {info['tau_n']:.3f}")
