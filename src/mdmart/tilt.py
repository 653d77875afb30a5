"""The choice of the conjugate measure's lam, and saddle-point solvers.

The conjugate laws themselves, probabilities proportional to p e^{lam*v}
and their log mgfs, come from `MartingaleModel.law_arrays`; the samplers
accumulate the log mgfs into Psi_n(lam) and the exact importance weight
exp(-lam*X_n + Psi_n(lam)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from .models import MartingaleModel

RESIDUAL_TOL = 1e-12


class SaddleError(RuntimeError):
    pass


@dataclass
class SaddleSolution:
    lam: float
    equation_residual: float


def solve_saddle_upper(x: float, rho: float, eps: float, delta: float,
                       c: float = 6.0) -> SaddleSolution:
    """Positive root of lam + lam*delta^2 + c*lam^{1+rho}*eps^rho = x."""
    return _solve_saddle(x, rho, eps, delta, c, 1.0)


def solve_saddle_lower(x: float, rho: float, eps: float, delta: float,
                       c: float = 6.0) -> SaddleSolution:
    """Smallest positive root of lam - lam*delta^2 - c*lam^{1+rho}*eps^rho = x."""
    return _solve_saddle(x, rho, eps, delta, c, -1.0)


def _solve_saddle(x, rho, eps, delta, c, sign):
    """Smallest positive root of g(lam) = lam (1 + sign delta^2)
    + sign c lam^{1+rho} eps^rho - x, the upper equation at sign = 1 and
    the lower at sign = -1.

    The upper g increases, from g(0) = -x to g(x) >= 0.  The lower g
    increases up to a stationary point and decreases after it, so a root
    exists iff the peak value reaches x; past the peak monotonicity is lost
    and we refuse to extrapolate."""
    if x < 0.0 or eps < 0.0 or delta < 0.0 or c <= 0.0:
        raise ValueError("need x, eps, delta >= 0 and c > 0")
    slope = 1.0 + sign * delta * delta

    def g(lam):
        return lam * slope + sign * c * lam ** (1.0 + rho) * eps ** rho - x

    if x == 0.0:
        return SaddleSolution(lam=0.0, equation_residual=0.0)
    if slope <= 0.0:
        raise SaddleError("no positive root: delta^2 >= 1")
    if eps == 0.0:
        lam = x / slope
        return SaddleSolution(lam=lam, equation_residual=abs(g(lam)))
    hi = x
    if sign < 0.0:
        hi = (slope / (c * (1.0 + rho) * eps ** rho)) ** (1.0 / rho)
        if g(hi) < 0.0:
            raise SaddleError(
                f"no positive root: x={x:.6g} exceeds the equation's maximum "
                f"{g(hi) + x:.6g} at lambda={hi:.6g}")
    lam = brentq(g, 0.0, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)
    res = abs(g(lam))
    if res >= RESIDUAL_TOL * (1.0 + x):
        raise SaddleError(f"saddle residual {res:.3g} too large")
    return SaddleSolution(lam=lam, equation_residual=res)


@dataclass
class TiltSelection:
    lam: float
    method: str  # "root" or "fallback"
    converged: bool


def choose_tilt(model: MartingaleModel, x: float) -> TiltSelection:
    """Pick lam so the tilted mean of X_n hits x; fallback lam = x flagged.

    For i.i.d. models the total drift is n times the tilted mean of the
    scaled law (`law_arrays`), a strictly increasing function of lam bounded
    by sqrt(n) * max atom, so a bracketed root either exists or x sits
    outside the attainable range.
    """
    if x < 0.0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        return TiltSelection(lam=0.0, method="root", converged=True)
    if not model.iid:
        return TiltSelection(lam=x, method="fallback", converged=False)
    sup_drift = model.n * max(model.law_arrays(0.0)[0][0].tolist())
    if x >= sup_drift * (1.0 - 1e-12):
        return TiltSelection(lam=x, method="fallback", converged=False)

    def g(lam):
        values, probs, _ = model.law_arrays(lam)
        return model.n * math.fsum((probs[0] * values[0]).tolist()) - x

    hi = max(x, 1.0)
    while g(hi) < 0.0:
        hi *= 2.0
        if hi > 1e12:
            return TiltSelection(lam=x, method="fallback", converged=False)
    lam = brentq(g, 0.0, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)
    if abs(g(lam)) > 1e-8:
        return TiltSelection(lam=x, method="fallback", converged=False)
    return TiltSelection(lam=float(lam), method="root", converged=True)
