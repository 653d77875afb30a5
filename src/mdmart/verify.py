"""Closed-form inequality suites behind the `verify` command.

Each suite returns (name, ok, detail).  These are the checks that need no
Monte Carlo at all: elementary remainder inequalities, the Gaussian sandwich,
and the drift/cumulant bounds evaluated on closed forms."""
from __future__ import annotations

import math

import numpy as np

from . import bounds
from .models import certify, make_rademacher
from .montecarlo import positioned_stream, seeded_stream

# the remainder suite draws, checks and drops its samples this many at a
# time, so its memory is bounded by the slice whatever the budget
REMAINDER_SLICE = 65536


def suite_remainder_inequalities(samples: int = 10 ** 6, seed: int = 0):
    """|x(e^x-1-x)| <= 2|x|^{2+rho} e^{x+} and the second-order analogue on
    random (x, rho).

    The x's are the first `samples` doubles of the stream keyed [seed, 0]
    and the rho's the next `samples`.  A second generator on that key starts
    at position `samples` (`positioned_stream`), so each slice of
    REMAINDER_SLICE pairs is drawn from the two generators, checked and
    dropped: memory does not grow with `samples`."""
    if not 1 <= samples < 2 ** 63:
        raise ValueError("samples must lie in [1, 2^63)")
    x_rng = seeded_stream(seed)
    rho_rng = positioned_stream(seed, samples)
    bad = 0
    for start in range(0, samples, REMAINDER_SLICE):
        size = min(REMAINDER_SLICE, samples - start)
        xs = x_rng.uniform(-50.0, 50.0, size)
        rhos = rho_rng.uniform(0.0, 1.0, size)
        rhos[rhos == 0.0] = 1.0
        bad += int(np.count_nonzero(~bounds.check_remainder_bounds(xs, rhos)))
    return "remainder_inequalities", bad == 0, f"{bad} violations in {samples}"


def suite_gaussian_sandwich():
    xs = np.arange(0.0, 10.005, 0.01)  # 0, 0.01, ..., 10
    bad = 0
    for x in xs:
        lo, hi = bounds.gaussian_sandwich(float(x))
        t = bounds.gaussian_tail(float(x))
        if not (lo <= t * (1.0 + 1e-12) and t <= hi * (1.0 + 1e-12)):
            bad += 1
    return "gaussian_sandwich", bad == 0, f"{bad} violations on {xs.size} points"


def suite_second_moment_vs_eps():
    """Every certified law satisfies E[xi^2] <= eps_n^2 (scaled units)."""
    bad = []
    for m in (make_rademacher(100), make_rademacher(400)):
        cert = certify(m)
        for law in m.reachable_laws():
            if law.second_moment() / m.n > cert.eps_n ** 2 * (1.0 + 1e-12):
                bad.append(m.name)
    return "second_moment_vs_eps", not bad, f"violating models: {bad}"


def suite_drift_bound():
    """Rademacher closed form: |B_n(lam) - lam| <= lam delta^2
    + 6 lam^{1+rho} eps^rho over lam in [0, 1/eps]."""
    n = 400
    cert = certify(make_rademacher(n))
    eps = cert.eps_n
    lams = np.linspace(0.0, 1.0 / eps, 1000)
    b = math.sqrt(n) * np.tanh(lams / math.sqrt(n))
    lhs = np.abs(b - lams)
    rhs = 6.0 * lams ** (1.0 + cert.rho) * eps ** cert.rho
    bad = int(np.sum(lhs > rhs + 1e-12))
    implied = float(np.max(np.divide(lhs[1:], lams[1:] ** 2 * eps)))
    return "drift_bound", bad == 0, f"{bad} violations; implied constant {implied:.4g}"


def suite_cumulant_bound():
    """Rademacher closed form: |Psi_n(lam) - lam^2/2| <=
    2 (1 + (lam eps)^{2-rho}) lam^{2+rho} eps^rho + lam^2 delta^2 / 2."""
    n = 400
    cert = certify(make_rademacher(n))
    eps, rho = cert.eps_n, cert.rho
    lams = np.linspace(0.0, 1.0 / eps, 1000)
    psi = n * np.log(np.cosh(lams / math.sqrt(n)))
    lhs = np.abs(psi - lams ** 2 / 2.0)
    rhs = 2.0 * (1.0 + (lams * eps) ** (2.0 - rho)) * lams ** (2.0 + rho) * eps ** rho
    bad = int(np.sum(lhs > rhs + 1e-12))
    with np.errstate(divide="ignore", invalid="ignore"):
        implied = float(np.nanmax(lhs[1:] / (lams[1:] ** (2.0 + rho) * eps ** rho)))
    return "cumulant_bound", bad == 0, f"{bad} violations; implied constant {implied:.4g}"


def run_all(samples: int = 10 ** 6, seed: int = 0):
    return [
        suite_remainder_inequalities(samples=samples, seed=seed),
        suite_gaussian_sandwich(),
        suite_second_moment_vs_eps(),
        suite_drift_bound(),
        suite_cumulant_bound(),
    ]
