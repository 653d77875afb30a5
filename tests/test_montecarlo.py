import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import betainc
from scipy.stats import beta, binom

from mdmart import models
from mdmart.bounds import BoundParams
from mdmart.models import (LATTICE_CELLS, make_heavy_left, make_rademacher,
                           make_regime_switch)
from mdmart.montecarlo import (CHUNK, MAX_PATHS, RatioReport, clopper_pearson,
                               enumerate_terminal,
                               estimate_tail_plain, estimate_tail_tilted,
                               exact_tail_by_enumeration,
                               is_expectation_by_enumeration,
                               lattice_histogram, mdp_scan,
                               rademacher_exact_tail, ratio_report,
                               seeded_chunks, seeded_stream, write_csv)
from mdmart.tilt import choose_tilt
from test_models import SignSwitch, exact_terminal_law, reference_tilt, three_atom


def walk_paths(model, lam):
    """(P_lam(path), X_n, log weight) of every path, depth first, atom 0
    first: the recursive walk that the level-by-level enumeration replaced."""
    table, paths = model.table, []
    tilted = [reference_tilt(law, lam, model.n) for law in table.laws]

    def walk(step, s, prob, x, psi):
        if step == model.n:
            paths.append((prob, x, -lam * x + psi))
            return
        atoms, log_mgf = tilted[table.law_of[s]]
        for a, (v, p) in enumerate(atoms):
            walk(step + 1, table.T[s, a], prob * p, x + v, psi + log_mgf)

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


def test_clopper_pearson_is_the_beta_quantiles():
    # bit for bit each end that scipy.stats.beta.ppf gives, at the tail
    # level (1 - 0.95) / 2, on counts from 1 trial to 2^63 - 1, wherever
    # that end is valid: finite and on its side of p_hat = k / trials.  Near
    # 2^63 some are not (nan at k = trials // 1000, hi < p_hat at
    # trials // 3); there the end must still be valid, and the beta law must
    # put its tail level there within 1e-6
    a = (1.0 - 0.95) / 2.0
    replaced = 0
    for trials in (1, 2, 3, 10, 99, 1000, 50000, 10 ** 6, 10 ** 9, 2 ** 53,
                   2 ** 63 - 1):
        ks = {0, 1, 2, 7, trials // 1000, trials // 3, trials // 2,
              trials - 2, trials - 1, trials}
        for k in sorted(k for k in ks if 0 <= k <= trials):
            p = k / trials
            lo, hi = clopper_pearson(k, trials)
            assert 0.0 <= lo <= p <= hi <= 1.0, (k, trials)
            ppf_lo = 0.0 if k == 0 else float(beta.ppf(a, k, trials - k + 1))
            ppf_hi = 1.0 if k == trials else float(beta.ppf(1.0 - a, k + 1, trials - k))
            if 0.0 <= ppf_lo <= p:
                assert repr(lo) == repr(ppf_lo), (k, trials)
            else:
                replaced += 1
                assert abs(betainc(k, trials - k + 1, lo) - a) <= 1e-6, (k, trials)
            if p <= ppf_hi <= 1.0:
                assert repr(hi) == repr(ppf_hi), (k, trials)
            else:
                replaced += 1
                assert abs(betainc(k + 1, trials - k, hi) - (1.0 - a)) <= 1e-6, (k, trials)
    assert replaced == 3


def test_clopper_pearson_valid_at_every_budget():
    # the plain estimator draws 2^63 - 1 paths in one histogram; its
    # interval was (nan, nan) before the invalid ends were replaced
    est = estimate_tail_plain(make_rademacher(400), 3.0, 2 ** 63 - 1, 0)
    lo, hi = est.ci95
    assert 0.0 < lo <= est.p_hat <= hi < 1.0
    assert hi - lo == pytest.approx(2.0 * 1.959964 * est.std_err, rel=1e-3)
    # counts where betaincinv fails, from a few paths to all of them
    for trials in (10 ** 17, 10 ** 18, 2 ** 63 - 1):
        for k in (1, 14, 46, 10 ** 6, trials // 7, trials // 3, trials - 14,
                  trials - 1):
            lo, hi = clopper_pearson(k, trials)
            assert 0.0 <= lo <= k / trials <= hi <= 1.0, (k, trials)


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

    def test_ess_flag_sees_unreached_cells(self):
        # at n = 20 and lam = 25 a path lands in the top cell with
        # probability 0.99972, so all 64 paths mostly share it and their
        # weights are equal: only the exact law's ESS sees the over-tilt.
        # At n = 10^4 the lowest of the 64 paths outweighs the next by about
        # e^8, and the sample's ESS sees it too
        for n in (20, 10_000):
            for s in range(50):
                est = estimate_tail_tilted(make_rademacher(n), 0.0, 25.0, 64, s)
                assert est.ess < 10.0 and "low_ess" in est.flags

    def test_rejects_bad_args(self):
        m = make_rademacher(10)
        with pytest.raises(ValueError):
            estimate_tail_tilted(m, 1.0, -0.5, 100, 0)
        with pytest.raises(ValueError):
            estimate_tail_plain(m, 1.0, 0, 0)
        # a count the histogram's int64 cells cannot hold
        for model in (m, make_regime_switch(10, 0.3)):
            with pytest.raises(ValueError):
                estimate_tail_plain(model, 1.0, 2 ** 63, 0)
            with pytest.raises(ValueError):
                estimate_tail_tilted(model, 1.0, 1.0, 2 ** 63, 0)


# (p_hat, SE, ESS) as float.hex, taken before the estimators shared one
# reduction with the histogram route: regime_switch and heavy_left draw
# paths, and these floats must not move.  regime_switch's were taken again
# when its sampler began to draw two blocks per uniform, and again at four;
# both were taken again when the tilted estimator began to integrate each
# path's last draw, and heavy_left's plain pin when its sampler began to
# draw the rare atoms' counts first; regime_switch's tilted pin again when
# it began to integrate its last 13 draws, and in its last bits when the
# completion's law set its rounding noise to 0 on both sides (the uniforms
# did not move).  regime_switch's plain pin did not move
PER_PATH_PINS = {
    "regime_switch": ("0x1.0e39b263e6416p-4", "0x1.5bbfe08bf5a0cp-11",
                      "0x1.6a169e4c701e8p+11"),
    "heavy_left": ("0x1.ae7ea80dc8f09p-5", "0x1.c022ea1119964p-13",
                   "0x1.df85eb642924bp+11"),
}
PLAIN_PINS = {
    "regime_switch": ("0x1.3f80000000000p-3", "0x1.290013259d312p-3",
                      "0x1.57026842d9184p-3"),
    "heavy_left": ("0x1.3a80000000000p-3", "0x1.24266389594ccp-3",
                   "0x1.51ddf39d64f49p-3"),
}
# (tilted, plain) (p_hat, SE) that the earlier samplers and estimators
# drew from the same streams: estimates of the same tails, so each pinned
# estimate agrees with its predecessors within 4 SE of their difference,
# 4 sqrt(SE^2 + SE_prev^2), which is 4 sqrt(2) SE where the two SEs are
# alike.  Integrating the last draw cut heavy_left's tilted SE 5-fold, and
# integrating 13 cut regime_switch's 1.7-fold


def plain_se(p):
    return p, math.sqrt(p * (1.0 - p) / 4096)


PREVIOUS_P_HAT = {
    "regime_switch": (((0.06475135684861437, 0.0014088273783937405), plain_se(0.158935546875)),
                      ((0.06715754624321883, 0.0014328481959580354), plain_se(0.164306640625)),
                      ((0.06250678673914276, 0.0013690757375503394), plain_se(0.156005859375)),
                      ((float.fromhex("0x1.0686465f0023cp-4"), float.fromhex("0x1.2cd0d9b86fac0p-10")),
                       plain_se(0.156005859375))),
    "heavy_left": (((0.05561203067169131, 0.001156822210000301), plain_se(0.1494140625)),),
}


class TestPerPathRoute:
    @pytest.mark.parametrize("model", [make_regime_switch(1600, 0.3),
                                       make_heavy_left(1600, 0.5)],
                             ids=lambda m: m.name)
    def test_pinned_floats(self, model):
        assert model.terminal_law() is None
        lam = choose_tilt(model, 1.5).lam
        est = estimate_tail_tilted(model, 1.5, lam, 4096, 5)
        assert (est.p_hat.hex(), est.std_err.hex(), est.ess.hex()) == \
            PER_PATH_PINS[model.name]
        plain = estimate_tail_plain(model, 1.0, 4096, 5)
        assert (plain.p_hat.hex(), *(c.hex() for c in plain.ci95)) == \
            PLAIN_PINS[model.name]
        for previous in PREVIOUS_P_HAT[model.name]:
            for e, (prev, se) in zip((est, plain), previous):
                assert abs(e.p_hat - prev) <= 4.0 * math.hypot(e.std_err, se)


class ScriptedCounts:
    """A generator whose `binomial` calls return given count columns in
    turn: it drives the one-state sampler through chosen atom counts."""

    def __init__(self, columns):
        self.columns = iter(columns)

    def binomial(self, n, p, size=None):
        return next(self.columns)


def compositions(total, parts):
    """Every tuple of `parts` counts >= 0 whose sum is at most `total`."""
    if parts == 0:
        yield ()
        return
    for c in range(total + 1):
        for rest in compositions(total - c, parts - 1):
            yield (c,) + rest


def multinomial(counts, probs):
    """The multinomial probability of each row of counts, taken in log
    space: 0 where an atom of probability 0 is drawn."""
    out = []
    for row in counts.tolist():
        lp = math.lgamma(sum(row) + 1.0)
        for c, p in zip(row, probs):
            if c:
                lp += c * math.log(p) - math.lgamma(c + 1.0) if p > 0.0 else -math.inf
        out.append(lp)
    return np.exp(out)


def every_path(model, lam, past, monkeypatch):
    """Every sequence of draws that the sampler can make under P, put
    through `simulate_terminal(..., lam, past=past)` as one batch: every
    draw but the ones the model integrates when `past` is given (the last
    split, or the last `_completion` table draws), and every draw when it
    is None.
    The one-state sampler's binomial counts, or the block sampler's alias
    draws, are replaced by the sequences' own.  Returns (P of each
    sequence, P_lam of each, the batch)."""
    t = model.table
    if len(t.states) == 1:
        order = model._split_order
        drawn = len(order) - (1 if past is None else 2)
        counts = np.array(list(compositions(model.n, drawn)), dtype=np.int64).reshape(-1, drawn)
        batch = model.simulate_terminal(len(counts), ScriptedCounts(counts.T), lam, past=past)
        full = np.column_stack((counts, model.n - counts.sum(axis=1)))
        # the last column lumps the atoms that are not drawn
        prob = [multinomial(full, p[:drawn].tolist() + [p[drawn:].sum()])
                for p in (t.probs[0, order], model.law_arrays(lam)[1][0, order])]
        return (*prob, batch)
    tables, tilted, plan = model.block_tables(0.0), model.block_tables(lam), model._blocks[1]
    draws = [(tables[b], tilted[b]) for b in plan]
    seqs = [((), 1.0, 1.0, 0)]  # (columns, P, P_lam, row)
    for tab, tilt in draws[:len(draws) - (model._completion[0] if past is not None else 0)]:
        seqs = [(cols + (c,), p * tab.prob[r * tab.width + c], q * tilt.prob[r * tab.width + c],
                 tab.end[r * tab.width + c])
                for cols, p, q, r in seqs
                for c in np.flatnonzero(tab.prob[r * tab.width:(r + 1) * tab.width] > 0.0)]
    columns = iter(np.array([s[0] for s in seqs]).T)
    monkeypatch.setattr(models, "alias_draw", lambda tables, base, width, u: next(columns))
    batch = model.simulate_terminal(len(seqs), np.random.default_rng(0), lam, past=past)
    return np.array([s[1] for s in seqs]), np.array([s[2] for s in seqs]), batch


@functools.cache
def exact_law(model):
    """(values, P) of X_n by the forward pass over (state, X), once per
    model."""
    return exact_terminal_law(model, 0.0)[:2]


def exact_tail(model, x):
    """P(X_n > x): by enumeration up to n = 14, then by the forward pass
    over (state, X)."""
    if model.n <= 14:
        return exact_tail_by_enumeration(model, x)
    values, prob = exact_law(model)
    return math.fsum(prob[values > x].tolist())


# models whose paths integrate their last draws, with n small enough for
# every path: regime_switch draws only the leftover table at n = 5 < B, its
# last draw is the leftover table at n = 2B + 3 and the table of one block,
# below the ladder's top, at n = 3B; at n = 96
# it draws the table of four blocks three times and integrates the last two;
# sign_switch draws one block, then the leftover; heavy_left and three_atom
# split their common atoms last
CONDITIONAL_MODELS = {m.name + f"-n{m.n}": m for m in (
    make_regime_switch(5, 0.3), make_regime_switch(19, 0.3), make_regime_switch(24, 0.3),
    make_regime_switch(96, 0.3),
    SignSwitch(11), make_heavy_left(6), three_atom(30))}
# the models that integrate one table draw or the split: at each value, the
# sampler's own float sum X + dx decides
ONE_DRAW = [k for k in CONDITIONAL_MODELS if k != "regime_switch-n96"]
# thresholds off every lattice of values
OFF_LATTICE = (0.05, 0.31, 0.77)


class TestConditionalRoute:
    def test_last_draws(self):
        # the tables the ladder models draw last are the ones named above
        tables, plan = CONDITIONAL_MODELS["regime_switch-n5"]._blocks
        assert plan == [1] and tables[1].steps == 5
        tables, plan = CONDITIONAL_MODELS["regime_switch-n19"]._blocks
        assert plan[-1] == len(tables) - 1 and tables[-1].steps == 3
        tables, plan = CONDITIONAL_MODELS["regime_switch-n24"]._blocks
        assert plan == [1, 0] and len(tables) == 2
        tables, plan = CONDITIONAL_MODELS["regime_switch-n96"]._blocks
        assert plan == [2, 2, 2] and len(tables) == 3
        tables, plan = CONDITIONAL_MODELS["sign_switch-n11"]._blocks
        assert tables[plan[-1]].steps == 3
        assert {k: m._completion[0] for k, m in CONDITIONAL_MODELS.items()
                if len(m.table.states) > 1} == \
            {"regime_switch-n5": 1, "regime_switch-n19": 1, "regime_switch-n24": 1,
             "regime_switch-n96": 2, "sign_switch-n11": 1}
        assert [CONDITIONAL_MODELS[k]._split_order for k in ("heavy_left-n6", "three_atom-n30")] == \
            [[2, 3, 4, 5, 6, 7, 8, 0, 1], [1, 0, 2]]

    @pytest.mark.parametrize("name", CONDITIONAL_MODELS)
    def test_expectation_is_the_exact_tail(self, name, monkeypatch):
        # E_lam[Y] = P(X_n > x) over every prefix the tilted sampler can
        # draw, Y = w' P(X_n > x | prefix), within 1e-12 relative (exactly
        # where the tail is 0)
        model = CONDITIONAL_MODELS[name]
        for x in OFF_LATTICE:
            exact = exact_tail(model, x)
            for lam in (0.0, 0.5, x):
                _, q, batch = every_path(model, lam, x, monkeypatch)
                drawn = q > 0.0
                y = np.exp(batch.log_weight[drawn]) * batch.tail[drawn]
                got = math.fsum((q[drawn] * y).tolist())
                assert abs(got - exact) <= 1e-12 * exact, (x, lam, got, exact)

    @pytest.mark.parametrize("name", ONE_DRAW)
    def test_ties_are_the_sampler(self, name, monkeypatch):
        # at thresholds that are values the sampler draws, where the float
        # sum X + dx decides, E_lam[Y] is the drawn sampler's own tail: the
        # mass under P of the paths it can draw under P_lam with X_n > x
        model = CONDITIONAL_MODELS[name]
        p, _, full = every_path(model, 0.0, None, monkeypatch)
        values = np.unique(full.x)
        for lam in (0.0, 0.5):
            _, q, drawn_full = every_path(model, lam, None, monkeypatch)
            assert np.array_equal(drawn_full.x, full.x)
            for x in values[::max(1, values.size // 25)].tolist():
                want = math.fsum(p[(q > 0.0) & (full.x > x)].tolist())
                _, q_prefix, batch = every_path(model, lam, x, monkeypatch)
                drawn = q_prefix > 0.0
                y = np.exp(batch.log_weight[drawn]) * batch.tail[drawn]
                got = math.fsum((q_prefix[drawn] * y).tolist())
                assert abs(got - want) <= 1e-12 * want, (x, lam, got, want)

    def test_ties_of_many_draws_are_the_lattice(self, monkeypatch):
        # at thresholds that are values of X_n, a path integrating several
        # draws adds their total to its X as one float, not draw by draw:
        # E_lam[Y] lies between the exact P(X_n > x) and P(X_n >= x)
        model = CONDITIONAL_MODELS["regime_switch-n96"]
        values, prob = exact_law(model)
        for x in values[::max(1, values.size // 15)].tolist():
            above, at = math.fsum(prob[values > x].tolist()), math.fsum(prob[values == x].tolist())
            for lam in (0.0, 0.5):
                _, q, batch = every_path(model, lam, x, monkeypatch)
                drawn = q > 0.0
                got = math.fsum((q[drawn] * np.exp(batch.log_weight[drawn])
                                 * batch.tail[drawn]).tolist())
                assert above * (1.0 - 1e-12) - 1e-15 <= got <= (above + at) * (1.0 + 1e-12) + 1e-15

    @pytest.mark.parametrize("name, paths", [
        ("regime_switch-n24", 2000), ("regime_switch-n96", 2000), ("sign_switch-n11", 2000),
        ("three_atom-n30", 2000), ("heavy_left-n6", 20_000)])
    def test_conditional_z_law(self, name, paths):
        # the tilted estimate's z against the exact tail over 200 seeds.
        # heavy_left's Y is one value unless a rare atom is drawn, which
        # 2000 paths do about 4 times at this tilt: too few for a normal z
        model, x = CONDITIONAL_MODELS[name], 0.31
        lam = choose_tilt(model, x).lam
        exact = exact_tail(model, x)
        z = np.array([(e.p_hat - exact) / e.std_err for e in
                      (estimate_tail_tilted(model, x, lam, paths, s) for s in range(200))])
        assert abs(z.mean()) <= 4.0 / math.sqrt(200)
        assert abs(z.std(ddof=1) - 1.0) <= 0.2

    def test_constant_y_is_flagged(self):
        # heavy_left's Y takes one value unless a path draws a rare atom; on
        # 3 of seeds 0-199, none of 2000 paths does, and the SE is only the
        # rounding of sum y^2 / N - p^2.  Exactly those rows are flagged
        model, x = CONDITIONAL_MODELS["heavy_left-n6"], 0.31
        lam = choose_tilt(model, x).lam
        ests = [estimate_tail_tilted(model, x, lam, 2000, s) for s in range(200)]
        flagged = [s for s, e in enumerate(ests) if "constant_y" in e.flags]
        assert flagged == [4, 9, 27]
        assert all(ests[s].std_err < 1e-9 for s in flagged)
        assert all(e.std_err > 1e-5 for s, e in enumerate(ests) if s not in flagged)
        # a sample of zeros is one value too
        assert "constant_y" in estimate_tail_tilted(model, 50.0, lam, 100, 0).flags

    def test_plain_counts_drawn_paths(self):
        # the plain estimator counts the paths past x that are drawn to the
        # end from its streams; no last draw is integrated
        for model in CONDITIONAL_MODELS.values():
            hits = sum(int(np.count_nonzero(model.simulate_terminal(size, rng).x > 0.31))
                       for rng, size in seeded_chunks(1, 3000, CHUNK))
            assert estimate_tail_plain(model, 0.31, 3000, 1).p_hat == hits / 3000


class TestLatticeRoute:
    @pytest.mark.parametrize("n", [1, 7, 400])
    @pytest.mark.parametrize("lam", [0.0, 0.7, 3.0])
    def test_cells_are_the_sampler(self, n, lam):
        # every path simulate_terminal draws is one of the law's cells, both
        # floats bit for bit, and the cells carry the Bin(n, p_lam) law
        model = make_rademacher(n)
        law = model.terminal_law(lam)
        batch = model.simulate_terminal(5000, seeded_stream(3), lam=lam)
        cells = set(zip(law.x.tolist(), law.log_weight.tolist()))
        assert set(zip(batch.x.tolist(), batch.log_weight.tolist())) <= cells
        p_up = model.law_arrays(lam)[1][0, 0]
        assert np.allclose(law.log_prob, binom.logpmf(np.arange(n + 1), n, p_up),
                           rtol=1e-12, atol=0.0)

    def test_no_lattice_past_cap(self):
        assert make_rademacher(LATTICE_CELLS - 1).terminal_law() is not None
        assert make_rademacher(LATTICE_CELLS).terminal_law() is None

    def test_histogram_law(self):
        # 200 histograms of 1000 draws: each cell's total within 4 SE of
        # 200 * 1000 * pmf, and every histogram sums to its budget
        law = make_rademacher(20).terminal_law(1.0)
        pmf = np.exp(law.log_prob)
        total = np.zeros(pmf.size, dtype=np.int64)
        for s in range(200):
            counts = lattice_histogram(pmf, 1000, seeded_stream(s))
            assert counts.sum() == 1000 and counts.min() >= 0
            total += counts
        mean = 200 * 1000 * pmf
        assert np.all(np.abs(total - mean) <= 4.0 * np.sqrt(mean * (1.0 - pmf)) + 1e-9)

    def test_tilted_z_law(self):
        # the tilted estimate's z against the exact tail over 200 seeds
        m = make_rademacher(20)
        lam = choose_tilt(m, 2.0).lam
        exact = rademacher_exact_tail(20, 2.0)
        z = np.array([(e.p_hat - exact) / e.std_err for e in
                      (estimate_tail_tilted(m, 2.0, lam, 10 ** 5, s)
                       for s in range(200))])
        assert abs(z.mean()) <= 4.0 / math.sqrt(200)
        assert abs(z.std(ddof=1) - 1.0) <= 0.2

    def test_ess_is_the_smaller_of_sample_and_law(self):
        # the law's ESS is n (sum P_lam w)^2 / sum P_lam w^2 over the cells
        # past x; the estimate reports it when the sample's is larger
        m = make_rademacher(20)
        lam = choose_tilt(m, 2.0).lam
        law = m.terminal_law(lam)
        past = law.x > 2.0
        pw = np.exp(law.log_prob[past] + law.log_weight[past])
        w = np.exp(law.log_weight[past])
        exact = 10 ** 5 * pw.sum() ** 2 / (pw * w).sum()
        ess = [estimate_tail_tilted(m, 2.0, lam, 10 ** 5, s).ess
               for s in range(20)]
        assert max(ess) == pytest.approx(exact, rel=1e-12)
        assert min(ess) < exact * (1.0 - 1e-6)

    def test_lighter_child_is_drawn(self):
        # a cell at 1e-17 of the mass gets Bin(10^18, 1e-17) draws, mean 10;
        # a split that draws the heavier child at share 1 - 1e-17, which
        # rounds to 1, would never put a draw there
        prob = np.array([1.0, 1e-17])
        hits = [lattice_histogram(prob, 10 ** 18, seeded_stream(s))[1]
                for s in range(50)]
        assert abs(np.mean(hits) - 10.0) <= 4.0 * math.sqrt(10.0 / 50)

    def test_zero_mass_cells_stay_empty(self):
        prob = np.array([0.0, 0.25, 0.0, 0.75, 0.0])
        for s in range(20):
            counts = lattice_histogram(prob, 10 ** 6, seeded_stream(s))
            assert counts.sum() == 10 ** 6
            assert not counts[[0, 2, 4]].any()

    def test_unreached_cells_weigh_nothing(self):
        # at lam = 40 and n = 10^4, 87 cells past x weigh e^{>709} = inf, and
        # no path reaches them
        est = estimate_tail_tilted(make_rademacher(10_000), 0.0, 40.0, 1000, 0)
        assert math.isfinite(est.p_hat) and math.isfinite(est.std_err)

    def test_deep_tail(self):
        # P(X_n > 8) = 5.54e-16 at n = 10^4: 10^18 paths put about 554 past
        # x, and each estimate lies within 4 SE of the exact tail.  A
        # 1 - (running sum) split, as numpy's multinomial takes, is 40% off
        # here
        m = make_rademacher(10_000)
        exact = rademacher_exact_tail(10_000, 8.0)
        assert exact == pytest.approx(5.54e-16, rel=1e-3)
        for s in range(5):
            est = estimate_tail_plain(m, 8.0, 10 ** 18, s)
            assert abs(est.p_hat - exact) <= 4.0 * est.std_err

    def test_budget_costs_no_memory(self):
        # 10^18 paths are one histogram over n + 1 cells
        m = make_rademacher(400)
        tracemalloc.start()
        try:
            plain = estimate_tail_plain(m, 3.0, 10 ** 18, 1)
            tilted = estimate_tail_tilted(m, 3.0, 3.0, 10 ** 18, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert plain.n_samples == tilted.n_samples == 10 ** 18
        exact = rademacher_exact_tail(400, 3.0)
        assert abs(tilted.p_hat - exact) <= 4.0 * tilted.std_err


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
        for rep, path in ((rep1, p1), (rep2, p2)):
            write_csv(path, RatioReport.CSV_COLUMNS, [vars(r) for r in rep.rows], "run")
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
