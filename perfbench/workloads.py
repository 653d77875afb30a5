"""The benchmark's workloads: each is a list of operations, built from the
seed, and every operation carries the reference check of its output.

An operation is one CLI command run in-process through ``mdmart.cli.main``
or one public library call.  ``run`` does the work and is the only part
timed; ``check`` compares the output with the library's own exact
references afterwards and returns the problems it found; ``rows`` gives the
(p_hat, SE, paths) of every tail estimate the operation produced.

Library calls go through ``api``, which is either the mdmart modules
themselves or the tracer's wrapped copies of them.  Checks always use the
real modules, so they are never traced.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.stats import binom

from mdmart import coupling, mixing, models, montecarlo
from mdmart.bounds import BoundParams, gaussian_tail, ratio_envelope

X_GRID = (0.5, 1.0, 1.5, 2.0)
MIX_GRID = (0.5, 1.0, 1.5)

TAIL_N = 1600
TAIL_BUDGET = 4096            # paths per x row
MIX_BUDGET = 10000            # block-sum realisations per chain
BERBEE_REPS = 2500
MC_BUDGET = 10 ** 6           # criterion-3 point, plain and tilted
MDP_BUDGET = 10 ** 5
VERIFY_BUDGET = 10 ** 6
COUPLE_NS = (100, 400, 1600, 6400)
SUP_NS = (100, 1000, 10000)

# three-state chain with second eigenvalue modulus ~0.26, so the block-sum
# envelope is defined (tau_n < 1) at n = 2000 and alpha = 0.3
P3 = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])


@dataclass
class Op:
    name: str
    run: Callable                 # (api, done) -> result
    check: Callable = lambda result, done: []
    rows: Callable = lambda result: []
    cli: bool = False


@dataclass
class CliResult:
    code: int
    output: str                   # stdout and stderr
    new_files: list
    artifacts: dict = field(default_factory=dict)   # file name -> bytes, read after timing


class OpError:
    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"


# -- artifacts ---------------------------------------------------------------

def _lenient(text):
    """The number in a field, also when it was written as np.float64(...)."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def parse_csv(data: bytes):
    """(rows as dicts of leniently parsed numbers, fields float() rejects)."""
    lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    rows, bad = [], 0
    for rec in reader:
        for text in rec:
            try:
                float(text)
            except ValueError:
                bad += 1
        rows.append({h: _lenient(v) for h, v in zip(header, rec)})
    return rows, bad


def unparsable_fields(name: str, data: bytes) -> int:
    if name.endswith(".csv"):
        return parse_csv(data)[1]
    if name.endswith(".json"):
        try:
            json.loads(data)
        except ValueError:
            return 1
    return 0


def run_cli(argv, out_dir, main):
    before = set(os.listdir(out_dir))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = main(["--out", out_dir] + argv)
    return CliResult(code=code, output=buf.getvalue(),
                     new_files=sorted(set(os.listdir(out_dir)) - before))


def cli_op(name, argv, out_dir, check=lambda res, done: [], rows=lambda res: []):
    def run(api, done):
        return run_cli(argv, out_dir, api.cli.main)

    def checked(res, done):
        problems = [] if res.code == 0 else [f"exit code {res.code}"]
        return problems + check(res, done)

    return Op(name=name, run=run, check=checked, rows=rows, cli=True)


def _csv_rows(res):
    return [r for name in res.artifacts if name.endswith(".csv")
            for r in parse_csv(res.artifacts[name])[0]]


def _estimates(rows, paths=None):
    return [(r["p_hat"], r["se"], paths or r["n_samples"]) for r in rows]


# -- reference checks --------------------------------------------------------

def _envelope_problems(rows, params, grid):
    """Each ratio inside ratio_envelope(x) widened by 3 SE; p_hat > 0."""
    if len(rows) != len(grid):
        return [f"{len(rows)} rows, expected {len(grid)}"]
    problems = []
    for row, x in zip(rows, grid):
        if row["p_hat"] <= 0.0:
            problems.append(f"x={x}: p_hat = 0")
            continue
        lo, hi = ratio_envelope(x, params)
        ratio = row["p_hat"] / gaussian_tail(x)
        slack = 3.0 * row["se"] / gaussian_tail(x)
        if not lo - slack <= ratio <= hi + slack:
            problems.append(f"x={x}: ratio {ratio:.6g} outside "
                            f"[{lo:.6g}, {hi:.6g}] +- {slack:.3g}")
    return problems


def _model_params(model):
    cert = models.certify(model)
    return BoundParams(rho=cert.rho, eps_n=cert.eps_n, delta_n=cert.delta_n, c=1.0)


def _mixing_params(chain, n, alpha):
    m, k, _ = mixing.block_indices(n, alpha)
    tau = mixing.tau_n(mixing.psi_bar_coefficient(chain.P, m), m, n, k)
    if tau >= 1.0:
        raise ValueError("envelope undefined: tau_n >= 1")
    return BoundParams(rho=1.0, eps_n=n ** -(0.5 - alpha), delta_n=tau, c=1.0)


def _rademacher_problems(rows):
    """|p_hat - exact binomial tail| <= 4 SE for every (n, x) row."""
    problems = []
    for r in rows:
        exact = montecarlo.rademacher_exact_tail(int(r["n"]), r["x"])
        if abs(r["p_hat"] - exact) > 4.0 * r["se"]:
            problems.append(f"n={r['n']} x={r['x']}: |{r['p_hat']:.6g} - "
                            f"{exact:.6g}| > 4 SE ({r['se']:.3g})")
        if r["p_hat"] <= 0.0:
            problems.append(f"n={r['n']} x={r['x']}: p_hat = 0")
    return problems


def _berbee_problems(chain, m, k, res):
    p, se = res
    bound = (k - 1) * mixing.beta_coefficient(chain.P, m + 1)
    if p > bound + 3.0 * se:
        return [f"mismatch {p:.4g} > (k-1) beta(m+1) = {bound:.4g} + 3 SE"]
    return []


# -- workloads ---------------------------------------------------------------

def tail_statedep(seed, out_dir):
    """Tail ratios for the two non-Rademacher models: a state-dependent
    sampler (regime_switch, an np.where chain per step) and an iid 9-atom
    sampler (heavy_left, searchsorted per step)."""
    grid = ",".join(str(x) for x in X_GRID)
    specs = [("regime_switch", ["--gamma", "0.3"],
              models.make_regime_switch(TAIL_N, 0.3)),
             ("heavy_left", ["--rho", "0.5", "--tail-atoms", "8"],
              models.make_heavy_left(TAIL_N, 0.5, 8))]
    ops = []
    for name, flags, model in specs:
        params = _model_params(model)
        ops.append(cli_op(
            f"tail {name}",
            ["--seed", str(seed), "tail", "--model", name, "--n", str(TAIL_N),
             *flags, "--x", grid, "--budget", str(TAIL_BUDGET)], out_dir,
            check=lambda res, done, p=params: _envelope_problems(_csv_rows(res), p, X_GRID),
            rows=lambda res: _estimates(_csv_rows(res))))
    return ops


def mixing_blocks(seed, out_dir):
    """Block sums and the Berbee coupling; nothing here calls models or
    tilt."""
    two = mixing.two_state_chain(0.3, 0.3)
    slow = mixing.two_state_chain(0.1, 0.1)
    pi = mixing.stationary_dist(P3)
    f = np.array([1.0, 0.0, -1.0])
    f = f - pi @ f
    three = mixing.MarkovChainSpec(states=[0, 1, 2], P=P3,
                                   f=f / math.sqrt(pi @ (f * f)), name="three_state")
    grid = ",".join(str(x) for x in MIX_GRID)
    two_params = _mixing_params(two, 10 ** 4, 0.3)
    three_params = _mixing_params(three, 2000, 0.3)

    def mixing_check(res, done):
        info = [json.loads(v) for k, v in res.artifacts.items() if k.endswith(".json")]
        problems = [] if info and info[0]["envelope_defined"] else ["envelope undefined"]
        return problems + _envelope_problems(_csv_rows(res), two_params, MIX_GRID)

    def berbee_op(label, chain, m, k, s):
        return Op(f"berbee {label} m={m} k={k}",
                  run=lambda api, done: api.mixing.berbee_mismatch_probability(
                      chain, m, k, BERBEE_REPS, s),
                  check=lambda res, done: _berbee_problems(chain, m, k, res))

    def three_rows(res):
        return [{"p_hat": r.p_hat, "se": r.se, "n_samples": r.n_samples}
                for r in res[0].rows]

    return [
        cli_op("mixing two_state(0.3,0.3)",
               ["--seed", str(seed), "mixing", "--a", "0.3", "--b-prob", "0.3",
                "--n", "10000", "--alpha", "0.3", "--x", grid,
                "--budget", str(MIX_BUDGET)], out_dir,
               check=mixing_check, rows=lambda res: _estimates(_csv_rows(res))),
        berbee_op("two_state(0.1,0.1)", slow, 1, 10, seed + 1),
        berbee_op("two_state(0.3,0.3)", two, 5, 10, seed + 2),
        Op("block sums three_state",
           run=lambda api, done: api.mixing.mixing_tail_experiment(
               three, 2000, 0.3, list(MIX_GRID), MIX_BUDGET, seed + 3),
           check=lambda res, done: _envelope_problems(three_rows(res), three_params,
                                                      MIX_GRID),
           rows=lambda res: _estimates(three_rows(res))),
        berbee_op("three_state", three, 3, 10, seed + 4),
    ]


def lattice_exact(seed, out_dir):
    """Everything that skips the per-step sampler: closed forms, exhaustive
    enumeration, the Rademacher binomial shortcut, coupling, certificates
    and saddle solvers."""
    ops = [Op("verify run_all",
              run=lambda api, done: api.verify.run_all(VERIFY_BUDGET, seed),
              check=lambda res, done: [f"{name}: {detail}"
                                       for name, ok, detail in res if not ok])]

    # n <= 12 enumeration oracles: the importance-sampling identity
    for model in (models.make_rademacher(6), models.make_rademacher(12),
                  models.make_regime_switch(6, 0.3), models.make_regime_switch(12, 0.3)):
        for x in (0.55, 1.15):
            key = f"enumerate exact {model.name} n={model.n} x={x}"

            def exact_check(res, done, model=model, x=x):
                if model.name != "rademacher":
                    return []
                ref = montecarlo.rademacher_exact_tail(model.n, x)
                return [] if abs(res - ref) <= 1e-12 else [f"{res!r} != {ref!r}"]

            ops.append(Op(key, run=lambda api, done, m=model, x=x:
                          api.montecarlo.exact_tail_by_enumeration(m, x),
                          check=exact_check))
            for lam in (0.0, 0.5, x):
                ops.append(Op(
                    f"enumerate IS {model.name} n={model.n} x={x} lam={lam}",
                    run=lambda api, done, m=model, x=x, lam=lam:
                        api.montecarlo.is_expectation_by_enumeration(m, x, lam),
                    check=lambda res, done, key=key:
                        [] if abs(res - done[key]) < 1e-10
                        else [f"|IS - exact| = {abs(res - done[key]):.3g}"]))

    # criterion-3 point: plain and tilted estimates, binomial shortcut
    rad = models.make_rademacher(400)

    def rad_check(res, done):
        return _rademacher_problems([{"n": 400, "x": 3.0, "p_hat": res.p_hat,
                                      "se": res.std_err}])

    ops += [
        Op("estimate plain rademacher n=400 x=3",
           run=lambda api, done: api.montecarlo.estimate_tail_plain(rad, 3.0, MC_BUDGET, seed),
           check=rad_check, rows=lambda res: [(res.p_hat, res.std_err, res.n_samples)]),
        Op("choose_tilt rademacher n=400 x=3",
           run=lambda api, done: api.tilt.choose_tilt(rad, 3.0),
           check=lambda res, done: [] if res.converged else ["tilt fell back"]),
        Op("estimate tilted rademacher n=400 x=3",
           run=lambda api, done: api.montecarlo.estimate_tail_tilted(
               rad, 3.0, done["choose_tilt rademacher n=400 x=3"].lam, MC_BUDGET, seed),
           check=rad_check, rows=lambda res: [(res.p_hat, res.std_err, res.n_samples)]),
        cli_op("mdp", ["--seed", str(seed), "mdp", "--budget", str(MDP_BUDGET)], out_dir,
               check=lambda res, done: _rademacher_problems(_csv_rows(res)),
               rows=lambda res: _estimates(_csv_rows(res), MDP_BUDGET)),
    ]

    def couple_check(res, done):
        rows = _csv_rows(res)
        problems = [f"n={int(r['n'])}: tail slope {r['tail_slope']:.3g} >= 0"
                    for r in rows if not r["tail_slope"] < 0.0]
        if len(rows) != len(COUPLE_NS):
            problems.append(f"{len(rows)} rows, expected {len(COUPLE_NS)}")
        for n in COUPLE_NS:
            probs = coupling.ExactBinomialQuantile(n).atom_probabilities()
            err = float(np.max(np.abs(probs - binom.pmf(np.arange(n + 1), n, 0.5))))
            if err >= 1e-12:
                problems.append(f"n={n}: atom probability error {err:.3g}")
        return problems

    ops.append(cli_op("couple", ["--seed", str(seed), "couple", "--n-list",
                                 ",".join(map(str, COUPLE_NS))], out_dir,
                      check=couple_check))

    for name, flags, model in (
            ("rademacher", [], models.make_rademacher(400)),
            ("heavy_left", ["--rho", "0.5"], models.make_heavy_left(400, 0.5, 8)),
            ("regime_switch", ["--gamma", "0.3"], models.make_regime_switch(400, 0.3))):
        def cert_check(res, done, model=model):
            doc = json.loads(res.artifacts[f"certificate_{model.name}_n400.json"])
            cert = models.Certificate(rho=doc["rho"], K=doc["K"], L=doc["L"],
                                      N=doc["N"], n=doc["n"])
            return [] if models.verify_certificate(model, cert) else ["certificate fails"]

        ops.append(cli_op(f"certify {name}", ["certify", "--model", name, "--n", "400",
                                              *flags], out_dir, check=cert_check))

    # saddle sweep: residual recomputed here from the defining equations
    for rho, eps in ((1.0, 0.01), (0.5, 1e-4)):
        delta, c = 0.05, 6.0
        for i in range(20):
            x = 0.2 * (i + 1)
            for kind, sign in (("upper", 1.0), ("lower", -1.0)):
                def saddle_check(res, done, x=x, rho=rho, eps=eps, sign=sign):
                    lam = res.lam
                    g = (lam * (1.0 + sign * delta * delta)
                         + sign * c * lam ** (1.0 + rho) * eps ** rho - x)
                    if not (lam > 0.0 and abs(g) < 1e-12 * (1.0 + x)):
                        return [f"lambda {lam!r}: residual {abs(g):.3g}"]
                    return []

                solver = f"solve_saddle_{kind}"
                ops.append(Op(f"{solver} rho={rho} x={x:.1f}",
                              run=lambda api, done, s=solver, x=x, rho=rho, eps=eps:
                                  getattr(api.tilt, s)(x, rho, eps, delta, c),
                              check=saddle_check))

    sup_keys = [f"rademacher_sup_distance n={n}" for n in SUP_NS]

    def slope_check(res, done):
        d = [done[k] for k in sup_keys]
        slope = float(np.polyfit(np.log(SUP_NS), np.log(d), 1)[0])
        return [] if abs(slope + 0.5) <= 0.15 else [f"Berry-Esseen slope {slope:.3f}"]

    for n, key in zip(SUP_NS, sup_keys):
        ops.append(Op(key, run=lambda api, done, n=n: api.bounds.rademacher_sup_distance(n),
                      check=slope_check if key == sup_keys[-1] else
                      (lambda res, done: [] if 0.0 < res < 1.0 else [f"{res!r}"])))
    return ops


WORKLOADS = {
    "tail-statedep": tail_statedep,
    "mixing-blocks": mixing_blocks,
    "lattice-exact": lattice_exact,
}
