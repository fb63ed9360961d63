"""Adaptive panel quadrature for oscillatory radial integrands.

A fixed Gauss--Kronrod (7, 15) rule is applied per panel; the difference
between the embedded Gauss value and the Kronrod value drives adaptive
bisection of the worst panels.  The initial panelization is oscillation
aware: panel width never exceeds pi over the largest wavenumber present,
so products of spherical Bessel kernels are resolved from the first pass.

Every node is interior, so integrands only ever see r in (0, a); removable
endpoint singularities (such as u_0 at the origin) are never sampled.

One adaptive loop advances a batch of integrals over [0, a] in lockstep
(``integrate_radial_batch``).  Each integral keeps its own panels, split
decisions, panel order and result; only the integrand evaluation of a
refinement round is shared, so a caller with several integrals at one
Bessel order builds one table per round for all of them.
``integrate_radial`` is a batch of one; a larger ``max_panels`` serves
truncated half-line integrals over [0, L].

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

__all__ = ["QuadratureResult", "integrate_radial", "integrate_radial_batch"]

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


def _eval_panels(f, active, lo, hi):
    """Apply the (7,15) rule to the panels [lo_i, hi_i] of each active integral.

    One call of f evaluates the nodes of all of them.  Returns, per
    integral, (I, err, resabs) per panel, or an IntegrandDomainError when
    its samples are not all finite.  The rule is applied to each integral's
    own (panels x 15) array: one stacked matrix product rounds differently.
    """
    halves = [0.5 * (h - l) for l, h in zip(lo, hi)]
    pts = [0.5 * (h + l)[:, None] + half[:, None] * _NODES[None, :] for l, h, half in zip(lo, hi, halves)]
    values = f(active, [p.ravel() for p in pts])
    out = []
    for p, half, vals in zip(pts, halves, values):
        vals = np.asarray(vals, dtype=float)
        if not np.all(np.isfinite(vals)):
            out.append(IntegrandDomainError("integrand returned a non-finite sample"))
            continue
        vals = vals.reshape(p.shape)
        integral = half * (vals @ _W_KRONROD)
        err = np.abs(integral - half * (vals @ _W_GAUSS))
        resabs = half * (np.abs(vals) @ _W_KRONROD)
        out.append((integral, err, resabs))
    return out


def _adaptive(f, a, rel_tol, osc_scales, max_panels):
    """Advance a batch of integrals over [0, a] in lockstep.

    Each integral keeps its own panels, split decisions, panel order and
    rule sums, so its result does not depend on the rest of the batch; only
    the integrand call of a refinement round is shared.  When integrals
    fail, the error of the lowest-index one is raised, and integrals after
    it stop refining.
    """
    lo, hi = [], []
    for osc in osc_scales:
        n0 = min(max(1, math.ceil(a * max(abs(osc), 1.0) / math.pi)), max_panels)
        edges = np.linspace(0.0, a, n0 + 1)
        lo.append(edges[:-1])
        hi.append(edges[1:])
    results, failures = [None] * len(lo), {}
    active = list(range(len(lo)))
    sums = dict(zip(active, _eval_panels(f, active, lo, hi)))

    while True:
        children = {}
        for i in active:
            if isinstance(sums[i], Exception):
                failures[i] = sums[i]
                continue
            integral, err, resabs = sums[i]
            total = float(integral.sum())
            total_err = float(err.sum())
            threshold = max(rel_tol * abs(total), _ABS_FLOOR, 100.0 * _EPS * float(resabs.sum()))
            if total_err <= threshold:
                results[i] = QuadratureResult(total, total_err, lo[i].size)
                continue
            if lo[i].size >= max_panels:
                failures[i] = ConvergenceError(
                    f"no convergence within {max_panels} panels "
                    f"(estimate {total_err:.3e} > threshold {threshold:.3e})",
                    QuadratureResult(total, total_err, lo[i].size),
                )
                continue
            split = err > threshold / lo[i].size
            if not split.any():  # numerical safety; always split the worst panel
                split = err == err.max()
            mid = 0.5 * (lo[i][split] + hi[i][split])
            # kept panels, then left halves, then right halves
            children[i] = (~split, np.concatenate([lo[i][split], mid]), np.concatenate([mid, hi[i][split]]))
        if failures:
            first = min(failures)
            children = {i: child for i, child in children.items() if i < first}
        if not children:
            break
        active = list(children)
        new_sums = _eval_panels(f, active, [children[i][1] for i in active], [children[i][2] for i in active])
        for i, child_sums in zip(active, new_sums):
            keep, new_lo, new_hi = children[i]
            lo[i] = np.concatenate([lo[i][keep], new_lo])
            hi[i] = np.concatenate([hi[i][keep], new_hi])
            if isinstance(child_sums, Exception):
                sums[i] = child_sums
            else:
                sums[i] = tuple(np.concatenate([old[keep], new]) for old, new in zip(sums[i], child_sums))
    if failures:
        raise failures[min(failures)]
    return results


def _lone(f):
    """A single integrand as a batch of one; a scalar-only f is sampled point by point."""

    def batch(active, points):
        (flat,) = points
        try:
            vals = np.asarray(f(flat), dtype=float)
            if vals.shape != flat.shape:
                raise TypeError("integrand is not vectorized")
        except (TypeError, ValueError, IndexError):
            # scalar-only integrand: fall back to a per-point loop
            vals = np.fromiter((float(f(p)) for p in flat), dtype=float, count=flat.size)
        return [vals]

    return batch


def validate_tol(rel_tol):
    """Reject a relative tolerance outside [1e-14, 1e-3]."""
    if not (1e-14 <= rel_tol <= 1e-3):
        raise InvalidInputError(f"rel_tol must lie in [1e-14, 1e-3], got {rel_tol}")


def integrate_radial_batch(f, a, rel_tol=1e-12, *, osc_scales, max_panels=8192):
    """Integrate a batch of integrands over [0, a] in lockstep.

    Each integral i is refined exactly as ``integrate_radial`` would refine
    it alone, with ``osc_scale=osc_scales[i]``, and its QuadratureResult is
    the same to the bit.  Only the integrand evaluation is shared: each
    refinement round makes one call ``f(active, points)``, where ``active``
    lists the indices of the integrals still refining (ascending) and
    ``points[n]`` holds the nodes of integral ``active[n]``.  It must return
    one value array per entry of ``points``, of the same shape, so that one
    Bessel table can serve the whole round.

    Returns the list of QuadratureResults in batch order.  If integrals fail
    (ConvergenceError, IntegrandDomainError), the error of the lowest-index
    one is raised, as a lone run of it would raise it.
    """
    if not (np.isfinite(a) and a > 0.0):
        raise InvalidInputError(f"upper limit a must be finite and > 0, got {a}")
    validate_tol(rel_tol)
    osc_scales = [float(osc) for osc in osc_scales]
    if not all(math.isfinite(osc) for osc in osc_scales):
        raise InvalidInputError("osc_scales must be finite")
    return _adaptive(f, float(a), float(rel_tol), osc_scales, int(max_panels))


def integrate_radial(f, a, rel_tol=1e-12, *, osc_scale=1.0, max_panels=8192):
    """Integrate f over [0, a] to the requested relative tolerance.

    A batch of one of ``integrate_radial_batch``: the module has one
    adaptive loop.

    Parameters
    ----------
    f : callable
        Real integrand of r; preferably vectorized over numpy arrays (a
        scalar-only f is sampled point by point).  Never sampled at r = 0
        or r = a (all nodes are interior).
    a : float
        Upper limit, > 0; for a truncated half-line integral, the cutoff L
        (with a larger ``max_panels``; the tail is the caller's business).
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
    (res,) = integrate_radial_batch(_lone(f), a, rel_tol, osc_scales=[osc_scale], max_panels=max_panels)
    return res
