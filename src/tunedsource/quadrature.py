"""Adaptive panel quadrature for oscillatory radial integrands.

A fixed Gauss--Kronrod (7, 15) rule is applied per panel; the difference
between the embedded Gauss value and the Kronrod value drives adaptive
bisection of the worst panels.  The initial panelization is oscillation
aware: panel width never exceeds pi over the largest wavenumber present,
so products of spherical Bessel kernels are resolved from the first pass.

Every node is interior, so integrands only ever see r in (0, a); removable
endpoint singularities (such as u_0 at the origin) are never sampled.

The mode integrals are computed in closed form in production
(``model.radial_integrals``).  This routine is the independent oracle the
test-suite and the finite-difference expansion check them against, and it
integrates the cross integral in the near-diagonal band where the closed
form's estimated rounding error exceeds the requested tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, IntegrandDomainError, InvalidInputError

__all__ = ["QuadratureResult", "integrate_radial", "integrate_extended"]

# Gauss-Kronrod (7, 15) nodes and weights on [-1, 1]
_XGK = np.array([
    0.9914553711208126392068547,
    0.9491079123427585245261897,
    0.8648644233597690727897128,
    0.7415311855993944398638648,
    0.5860872354676911302941448,
    0.4058451513773971669066064,
    0.2077849550078984676006894,
    0.0,
])
_WGK = np.array([
    0.0229353220105292249637320,
    0.0630920926299785532907007,
    0.1047900103222501838398763,
    0.1406532597155259187451896,
    0.1690047266392679028265834,
    0.1903505780647854099132564,
    0.2044329400752988924141620,
    0.2094821410847278280129992,
])
_WG7 = np.array([
    0.1294849661688696932706114,
    0.2797053914892766679014678,
    0.3818300505051189449503698,
    0.4179591836734693877551020,
])

_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_W_KRONROD = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_W_GAUSS = np.zeros(15)
_W_GAUSS[[1, 3, 5]] = _WG7[:3]
_W_GAUSS[7] = _WG7[3]
_W_GAUSS[[9, 11, 13]] = _WG7[2::-1]

_ABS_FLOOR = 1e-15
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureResult:
    """Value, conservative error estimate, and panel count of one integral."""

    value: float
    abs_error_estimate: float
    panels_used: int


def _eval_panels(f, lo, hi):
    """Apply the (7,15) rule to each [lo_i, hi_i]; returns (I, err, resabs)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * _NODES[None, :]
    flat = pts.ravel()
    try:
        vals = np.asarray(f(flat), dtype=float)
        if vals.shape != flat.shape:
            raise TypeError("integrand is not vectorized")
    except (TypeError, ValueError, IndexError):
        # scalar-only integrand: fall back to a per-point loop
        vals = np.fromiter((float(f(p)) for p in flat), dtype=float, count=flat.size)
    if not np.all(np.isfinite(vals)):
        raise IntegrandDomainError("integrand returned a non-finite sample")
    vals = vals.reshape(pts.shape)
    integral = half * (vals @ _W_KRONROD)
    err = np.abs(integral - half * (vals @ _W_GAUSS))
    resabs = half * (np.abs(vals) @ _W_KRONROD)
    return integral, err, resabs


def _adaptive(f, a, rel_tol, osc_scale, max_panels):
    n0 = max(1, math.ceil(a * max(abs(osc_scale), 1.0) / math.pi))
    n0 = min(n0, max_panels)
    edges = np.linspace(0.0, a, n0 + 1)
    lo, hi = edges[:-1], edges[1:]
    integral, err, resabs = _eval_panels(f, lo, hi)

    while True:
        total = float(integral.sum())
        total_err = float(err.sum())
        threshold = max(rel_tol * abs(total), _ABS_FLOOR, 100.0 * _EPS * float(resabs.sum()))
        if total_err <= threshold:
            return QuadratureResult(total, total_err, lo.size)
        if lo.size >= max_panels:
            raise ConvergenceError(
                f"no convergence within {max_panels} panels "
                f"(estimate {total_err:.3e} > threshold {threshold:.3e})",
                QuadratureResult(total, total_err, lo.size),
            )
        split = err > threshold / lo.size
        if not split.any():  # numerical safety; always split the worst panel
            split = err == err.max()
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        child_int, child_err, child_res = _eval_panels(f, new_lo, new_hi)
        lo = np.concatenate([lo[~split], new_lo])
        hi = np.concatenate([hi[~split], new_hi])
        integral = np.concatenate([integral[~split], child_int])
        err = np.concatenate([err[~split], child_err])
        resabs = np.concatenate([resabs[~split], child_res])


def validate_tol(rel_tol):
    """Reject a relative tolerance outside [1e-14, 1e-3]."""
    if not (1e-14 <= rel_tol <= 1e-3):
        raise InvalidInputError(f"rel_tol must lie in [1e-14, 1e-3], got {rel_tol}")


def integrate_radial(f, a, rel_tol=1e-12, *, osc_scale=1.0, max_panels=8192):
    """Integrate f over [0, a] to the requested relative tolerance.

    Parameters
    ----------
    f : callable
        Real integrand of r; preferably vectorized over numpy arrays.
        Never sampled at r = 0 or r = a (all nodes are interior).
    a : float
        Upper limit, > 0.
    rel_tol : float
        Requested relative accuracy, in [1e-14, 1e-3]; an absolute floor
        of 1e-15 applies near zero values.
    osc_scale : float, keyword only
        Characteristic wavenumber of the integrand (e.g. max(|k|, |K|));
        sets the initial panel width to at most pi / max(osc_scale, 1).
    max_panels : int, keyword only
        Refinement budget; exceeding it raises ConvergenceError carrying
        the best estimate.

    Returns
    -------
    QuadratureResult
    """
    if not (np.isfinite(a) and a > 0.0):
        raise InvalidInputError(f"upper limit a must be finite and > 0, got {a}")
    validate_tol(rel_tol)
    return _adaptive(f, float(a), float(rel_tol), osc_scale, int(max_panels))


def integrate_extended(f, tail_cut, rel_tol=1e-12, *, osc_scale=1.0, max_panels=65536):
    """Truncated version of the half-line integral: integrate f over [0, L].

    Used to check convergent extended integrals by truncation at L =
    ``tail_cut``; the error contract is the same as ``integrate_radial``
    (the truncation tail itself is the caller's business).
    """
    if not (np.isfinite(tail_cut) and tail_cut > 0.0):
        raise InvalidInputError(f"tail_cut must be finite and > 0, got {tail_cut}")
    validate_tol(rel_tol)
    return _adaptive(f, float(tail_cut), float(rel_tol), osc_scale, int(max_panels))
