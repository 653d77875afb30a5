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

# the remainder suite draws and checks its samples this many at a time, in
# buffers it allocates once per call: memory is bounded by the slice whatever
# the budget, and no slice allocates temporaries that the allocator would
# hand back to the kernel and fault in again for the next.  In a sweep over
# 16384, 32768 and 65536 pairs, 32768 was no slower than either, with half
# the scratch of 65536
REMAINDER_SLICE = 32768


def suite_remainder_inequalities(samples: int = 10 ** 6, seed: int = 0):
    """|x(e^x-1-x)| <= 2|x|^{2+rho} e^{x+} and the second-order analogue on
    random (x, rho).

    The x's are the first `samples` doubles of the stream keyed [seed, 0]
    and the rho's the next `samples`.  A second generator on that key starts
    at position `samples` (`positioned_stream`), so each slice of
    REMAINDER_SLICE pairs is drawn from the two generators and checked in
    one set of buffers that every slice reuses: memory does not grow with
    `samples`, and the per-slice work allocates only for the rare |x| below
    the series cut."""
    if not 1 <= samples < 2 ** 63:
        raise ValueError("samples must lie in [1, 2^63)")
    x_rng = seeded_stream(seed)
    rho_rng = positioned_stream(seed, samples)
    size = min(samples, REMAINDER_SLICE)
    xs, rhos = np.empty(size), np.empty(size)
    work = bounds.remainder_work(size)
    bad = 0
    for start in range(0, samples, size):
        m = min(size, samples - start)
        x, rho = xs[:m], rhos[:m]
        # bit for bit uniform(-50, 50) and uniform(0, 1)
        x_rng.random(out=x)
        x *= 100.0
        x -= 50.0
        rho_rng.random(out=rho)
        if rho.min() == 0.0:
            rho[rho == 0.0] = 1.0
        bad += m - int(np.count_nonzero(bounds.check_remainder_bounds(x, rho, work)))
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
    bad = [m.name for m in (make_rademacher(100), make_rademacher(400))
           if (m.second_moments / m.n > certify(m).eps_n ** 2 * (1.0 + 1e-12)).any()]
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
