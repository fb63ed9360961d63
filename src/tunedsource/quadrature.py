"""Adaptive panel quadrature for oscillatory radial integrands.

A fixed Gauss--Kronrod (7, 15) rule is applied per panel; the difference
between the embedded Gauss value and the Kronrod value drives adaptive
bisection of the worst panels.  The initial panelization is oscillation
aware: panel width never exceeds pi / max(osc_scale, 1), where the caller's
osc_scale is the integrand's highest wavenumber, |k| + |K| for a product of
kernels at k r and K r, so such products are resolved from the first pass.

Every node is interior, so integrands only ever see r in (0, a); removable
endpoint singularities (such as u_0 at the origin) are never sampled.

One adaptive loop advances a batch of integrals over [0, a] in lockstep
(``integrate_radial_batch``), each to the bit as a lone run.  A round is
flat: nodes, the integrand call ``f(owner, r)`` on the flat node array, the
rule sums (row-wise over the panels), the convergence sums (one segmented
sum over the integrals), the split decisions and the merge run once over all
active panels.  A row's or a segment's sum depends only on its own values.
``integrate_radial`` is a batch of one; a larger ``max_panels`` serves
truncated half-line integrals over [0, L].

Production computes the mode integrals in closed form (``model.radial_integrals``);
this is the independent oracle that the tests and ``theorems.expansion_fd`` use.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, IntegrandDomainError, InvalidInputError
from .scalar import _finite, _int, validate_tol

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


class QuadratureResult(NamedTuple):
    """Value, conservative error estimate, and panel count of one integral."""

    value: float
    abs_error_estimate: float
    panels_used: int


def _starts(sizes):
    """The first column of each of consecutive blocks of the given sizes."""
    return list(itertools.accumulate(sizes[:-1], initial=0))


def _eval_panels(f, owner, lo, hi):
    """Apply the (7,15) rule, in one flat pass, to the panels [lo_n, hi_n] of the integrals owner_n.

    Returns them as the rows (lo, hi, I, err, resabs) of one array, and the
    set of integrals with a non-finite sample.  Each panel's three rule sums
    are row-wise sums of its own 15 products, so they do not depend on which
    other panels the round holds.
    """
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo)[:, None] + half[:, None] * _NODES).ravel()
    vals = np.asarray(f(np.repeat(owner, 15), nodes), dtype=float)
    if vals.shape != nodes.shape:
        raise ValueError("the integrand must return one value per node")
    vals = vals.reshape(lo.size, 15)
    finite = np.isfinite(vals)
    bad = set(owner[~finite.all(axis=1)].tolist())
    if bad:
        vals = np.where(finite, vals, 0.0)   # keeps the rule arithmetic quiet; the sums of a bad integral go unused
    integral = half * np.add.reduce(vals * _W_KRONROD, axis=1)
    err = np.abs(integral - half * np.add.reduce(vals * _W_GAUSS, axis=1))
    resabs = half * np.add.reduce(np.abs(vals) * _W_KRONROD, axis=1)
    return np.stack([lo, hi, integral, err, resabs]), bad


def _adaptive(f, a, rel_tol, osc_scales, max_panels):
    """Advance a batch of integrals over [0, a] in lockstep, in flat rounds.

    The panels of the active integrals are the columns of one array, one
    block per integral in ascending order, each in a lone run's order; a
    stable argsort by owner keeps that order through every merge.  The
    sums that decide convergence are one segmented sum over the blocks.
    When integrals fail, the error of the lowest-index one is raised, and
    integrals after it stop refining.
    """
    # clamped before rounding: a * osc / pi can overflow to inf, which math.ceil rejects
    counts = [max(1, math.ceil(min(a * max(abs(osc), 1.0) / math.pi, max_panels))) for osc in osc_scales]
    edges = {count: np.linspace(0.0, a, count + 1) for count in set(counts)}
    active = list(range(len(counts)))
    owner = np.repeat(active, counts)
    panels, bad = _eval_panels(f, owner, np.concatenate([edges[n][:-1] for n in counts]),
                               np.concatenate([edges[n][1:] for n in counts]))
    results, failures = [None] * len(counts), {}
    while True:
        refine, limits = [], []   # positions in active that refine, and their split limits
        sums = np.add.reduceat(panels[2:], _starts(counts), axis=1).T.tolist()
        for n, (i, count, (total, total_err, res)) in enumerate(zip(active, counts, sums)):
            if i in bad:
                failures[i] = IntegrandDomainError("integrand returned a non-finite sample")
                continue
            threshold = max(rel_tol * abs(total), _ABS_FLOOR, 100.0 * _EPS * res)
            if total_err <= threshold:
                results[i] = QuadratureResult(total, total_err, count)
            elif count >= max_panels:
                failures[i] = ConvergenceError(
                    f"no convergence within {max_panels} panels "
                    f"(estimate {total_err:.3e} > threshold {threshold:.3e})",
                    QuadratureResult(total, total_err, count),
                )
            elif not failures or i < min(failures):   # after a failure, only lower indices refine
                refine.append(n)
                limits.append(threshold / count)
        if not refine:
            break
        if len(refine) < len(active):
            keep = np.repeat(np.isin(np.arange(len(active)), refine), counts)
            panels, owner = panels[:, keep], owner[keep]
            active, counts = [active[n] for n in refine], [counts[n] for n in refine]
        lo, hi, _, err, _ = panels
        starts = _starts(counts)
        split = err > np.repeat(limits, counts)
        splits = np.add.reduceat(split, starts)
        if not splits.all():   # numerical safety; always split the worst panel
            split |= np.repeat(splits == 0, counts) & (err == np.repeat(np.maximum.reduceat(err, starts), counts))
            splits = np.add.reduceat(split, starts)
        mid = 0.5 * (lo[split] + hi[split])
        order = np.argsort(np.concatenate([owner[split]] * 2), kind="stable")  # left halves, then right halves
        child_lo, child_hi = np.concatenate([lo[split], mid])[order], np.concatenate([mid, hi[split]])[order]
        child_owner = np.repeat(active, 2 * splits)
        children, bad = _eval_panels(f, child_owner, child_lo, child_hi)
        key = np.concatenate([owner[~split], child_owner])
        order = np.argsort(key, kind="stable")  # kept panels, then left halves, then right halves
        owner = key[order]
        panels = np.concatenate([panels[:, ~split], children], axis=1)[:, order]
        counts = [count + n for count, n in zip(counts, splits.tolist())]
    if failures:
        raise failures[min(failures)]
    return results


def integrate_radial_batch(f, a, rel_tol=1e-12, *, osc_scales, max_panels=8192):
    """Integrate a batch of integrands over [0, a] in lockstep.

    Each integral i is refined exactly as ``integrate_radial`` would refine
    it alone, with ``osc_scale=osc_scales[i]``, and its QuadratureResult is
    the same to the bit, since a round's rule and convergence sums are
    row-wise and segmented sums, each depending only on its own panel or
    integral.  Each round makes one call ``f(owner, r)``, where ``r`` is the
    flat array of the round's nodes, grouped by integral in ascending batch
    order, and ``owner[n]`` is the batch index of node n's integral.  It
    must return an array of r's shape, one value per node, so that one
    Bessel table can serve the whole round.  The results equal lone runs'
    as long as a node's value depends only on r[n] and owner[n].

    Returns the list of QuadratureResults in batch order; an empty batch
    returns [] without calling f.  If integrals fail (ConvergenceError,
    IntegrandDomainError), the error of the lowest-index one is raised, as
    a lone run of it would raise it.
    """
    a = _finite("upper limit a", a)
    if not a > 0.0:
        raise InvalidInputError(f"upper limit a must be > 0, got {a}")
    validate_tol(rel_tol)
    max_panels = _int("max_panels", max_panels, 1)
    osc_scales = [_finite("osc_scales entry", osc) for osc in osc_scales]
    if not osc_scales:
        return []
    return _adaptive(f, a, float(rel_tol), osc_scales, max_panels)


def integrate_radial(f, a, rel_tol=1e-12, *, osc_scale=1.0, max_panels=8192):
    """Integrate f over [0, a] to the requested relative tolerance.

    A batch of one of ``integrate_radial_batch``: the module has one
    adaptive loop.

    Parameters
    ----------
    f : callable
        Real integrand of r, vectorized: called on an array of nodes, it
        returns one value per node (anything else raises ValueError).
        Never sampled at r = 0 or r = a (all nodes are interior).
    a : float
        Upper limit, > 0; for a truncated half-line integral, the cutoff L
        (with a larger ``max_panels``; the tail is the caller's business).
    rel_tol : float
        Requested relative accuracy, in [1e-14, 1e-3]; an absolute floor
        of 1e-15 applies near zero values.
    osc_scale : float, keyword only
        The integrand's highest wavenumber (|k| + |K| for a product of
        kernels at k r and K r); sets the initial panel width to at most
        pi / max(osc_scale, 1).
    max_panels : int, keyword only
        Refinement budget, >= 1; exceeding it raises ConvergenceError carrying
        the best estimate.

    Returns
    -------
    QuadratureResult
    """
    (res,) = integrate_radial_batch(lambda owner, r: f(r), a, rel_tol, osc_scales=[osc_scale], max_panels=max_panels)
    return res
