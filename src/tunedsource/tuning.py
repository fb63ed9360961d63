"""Tuning-constraint roots and selection of the minimal multiplier.

The tuning set is the zero set of a scalar constraint function g(chi) (the
reactive part of the complex power in the physical problem; any caller-
supplied smooth function here).  Roots are located by a sign-change scan on
a uniform grid followed by bisection; the tuned multiplier chi0 is the root
of smallest absolute value, with ties broken toward the positive sign.

The constraint function is injected rather than built in: evaluating the
physical reactive power needs the propagator expansion, which lives outside
this library.  A tabulated constraint is passed as a piecewise-linear
interpolator of its table; the CLI builds one with ``_interp``.

The scan grid (``_linspace``) and the interpolator are pure Python, so the
root search imports no numpy.  They give the bits of ``numpy.linspace`` and
``numpy.interp`` (the test suite checks both against numpy).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from .errors import ConstraintEvaluationError, InvalidInputError, NoTunedSolutionError
from .model import _tuned_K
from .scalar import _finite, _int

__all__ = ["ChiSet", "find_constraint_roots", "select_chi0"]


class ChiSet(NamedTuple):
    """Sorted roots of the tuning constraint on the searched interval.

    ``excluded`` lists sign-change locations that were dropped because they
    violate the admissibility bound chi * mu_omega < k^2 (evanescent tuned
    wavenumber); they are reported so a caller can widen its model rather
    than silently lose solutions.
    """

    roots: Tuple[float, ...]
    bracket_tol: float
    excluded: Tuple[float, ...] = ()


def _linspace(lo: float, hi: float, n: int) -> list:
    """``numpy.linspace(lo, hi, n).tolist()`` to the bit, n >= 1."""
    lo, hi = float(lo), float(hi)
    if n == 1:
        return [0.0 * (hi - lo) + lo]  # numpy's y * delta + start: -0.0 becomes 0.0
    div = n - 1
    delta = hi - lo
    step = delta / div
    if step == 0.0:
        # numpy's branch for a step that underflows (or lo == hi)
        values = [i / div * delta + lo for i in range(n)]
    else:
        values = [i * step + lo for i in range(n)]
    values[-1] = hi
    return values


def _interp(x: float, xp: Sequence[float], fp: Sequence[float]) -> float:
    """``numpy.interp(x, xp, fp)`` to the bit for a finite x; xp strictly increasing, len >= 2.

    Outside [xp[0], xp[-1]] the end values hold.  The arithmetic is numpy's:
    a node hit returns its value, and a nan from one side of the segment is
    retried from the other.
    """
    j = bisect_right(xp, x) - 1
    if j < 0:
        return fp[0]
    if j >= len(xp) - 1:
        return fp[-1]
    if xp[j] == x:
        return fp[j]
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    value = slope * (x - xp[j]) + fp[j]
    if math.isnan(value):
        value = slope * (x - xp[j + 1]) + fp[j + 1]
        if math.isnan(value) and fp[j] == fp[j + 1]:
            value = fp[j]
    return value


def _bisect(g: Callable[[float], float], lo: float, hi: float, g_lo: float, tol: float) -> float:
    """Standard bisection on a sign-change bracket down to width <= tol."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if not math.isfinite(g_mid):
            raise ConstraintEvaluationError(f"constraint returned non-finite value at chi={mid}")
        if g_mid == 0.0:
            return mid
        if (g_lo < 0.0) != (g_mid < 0.0):
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    return 0.5 * (lo + hi)


def find_constraint_roots(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    grid_n: int,
    tol: float,
    *,
    k: Optional[float] = None,
    mu_omega: Optional[float] = None,
) -> ChiSet:
    """Locate all sign-change roots of g on [lo, hi].

    Parameters
    ----------
    g : callable
        Scalar constraint function; must be finite on the interval.
    lo, hi : float
        Search interval, lo < hi; real numbers (not bool), as is tol.
    grid_n : int
        Number of scan points, an integer >= 2; sign changes between
        neighbours are bisected.  Roots closer together than the grid spacing
        can be missed, as with any finite scan.
    tol : float
        Bracket width at which bisection stops; each returned root r either
        carries a sign change within [r - tol, r + tol] or satisfies
        |g(r)| = 0 exactly on a grid point.
    k, mu_omega : float, keyword only, optional
        Given together or not at all, under the rules of
        ``model.tuned_wavenumber`` at chi = 0; when given, roots with
        chi * mu_omega >= k^2 are dropped into ``excluded`` (inadmissible
        tuning, K^2 <= 0).
    """
    lo, hi, tol = (_finite(name, value) for name, value in (("lo", lo), ("hi", hi), ("tol", tol)))
    if not lo < hi:
        raise InvalidInputError(f"need finite lo < hi, got [{lo}, {hi}]")
    grid_n = _int("grid_n", grid_n, 2)
    if not tol > 0.0:
        raise InvalidInputError(f"tol must be > 0, got {tol}")
    if k is not None or mu_omega is not None:    # the one left out fails the rule as None
        _tuned_K(k, mu_omega, 0.0)

    xs = _linspace(lo, hi, grid_n)
    gs = [float(g(x)) for x in xs]
    for x, gx in zip(xs, gs):
        if not math.isfinite(gx):
            raise ConstraintEvaluationError(f"constraint returned non-finite value at chi={x}")

    found = []
    for i, (x, gx) in enumerate(zip(xs, gs)):
        if gx == 0.0:
            found.append(x)
        if i + 1 < len(xs) and gx != 0.0 and gs[i + 1] != 0.0 and (gx < 0.0) != (gs[i + 1] < 0.0):
            found.append(_bisect(g, x, xs[i + 1], gx, tol))

    # merge duplicates closer than the bracket tolerance
    found.sort()
    merged = []
    for r in found:
        if not merged or r - merged[-1] > tol:
            merged.append(r)

    if k is not None:
        admissible = [r for r in merged if r * mu_omega < k * k]
        excluded = tuple(r for r in merged if r * mu_omega >= k * k)
    else:
        admissible, excluded = merged, ()

    return ChiSet(roots=tuple(admissible), bracket_tol=tol, excluded=excluded)


def select_chi0(xi: ChiSet) -> float:
    """The tuning-set element of smallest |chi|; positive sign wins exact ties.

    Raises
    ------
    NoTunedSolutionError
        If the set is empty (constraint infeasible on the searched interval).
    """
    if not xi.roots:
        raise NoTunedSolutionError("tuning set is empty on the searched interval")
    return min(xi.roots, key=lambda c: (abs(c), c < 0.0))
