"""Spherical Bessel kernels and their closed-form radial integrals.

The radiating-source machinery is built from two radial kernels,

    j_l(x)  -- spherical Bessel function of the first kind,
    u_l(x)  =  x^{-1} d/dx [x j_l(x)]
            =  [(l+1) j_{l-1}(x) - l j_{l+1}(x)] / (2l+1),

together with the closed form of the radial self-integral (Lommel's first
integral) and of the cross integral of two kernels at different wavenumbers
(Lommel's second integral).  ``lommel_first`` and ``lommel_second`` are
views of the j=2 closed-form cell, ``model._closed_form``: the one place
that estimates the rounding of Lommel's difference and switches to the
near-diagonal series.

Evaluation strategy: one table of orders 0..lmax per call.  Arguments below
0.1 take an ascending series, evaluated on the whole (orders x points) block
at once.  Arguments below lmax take the downward (Miller) recurrence with
normalization, started a number of orders above lmax that grows with the
argument (``scalar._miller_margin``: 8 below x = 0.5, up to 60 from x = 32
on).  Other arguments take the upward recurrence (``scalar._upward_column``,
run elementwise).  Each point's value depends only on its own argument and
lmax, not on the other points of the table.  ``_jl_table`` also takes one
top order per point; each column then equals a lone table of its own top,
to the bit, so one table serves neighbouring orders
(``theorems.series_integrals_j1``).

Two builders make such a table, with the same bits.  ``_jl_table``, here,
runs each recurrence order as numpy calls over all points; its Miller
overflow check runs only when a Python-float growth bound allows an
overflow, so a step costs two numpy calls (three for the orders it stores).
The array kernels (``bessel_j`` and friends) and the quadrature integrands
use it, where a call holds hundreds of points.  The four array kernels share
one evaluator, ``_on_table``: it rejects x unless finite and real, builds
the table at |x| (x = 0 included) and applies each kernel's parity, so a
kernel only says which table rows it combines.  ``scalar._jl_column`` runs
the Miller and upward recurrences on Python floats for one point, with
``math``'s sin and cos; it needs numpy only for an argument below the series
cutoff, which takes ``_jl_series``.  The callers that hold a fixed handful of
scalars use it: the closed-form cell (and so the Lommel views and the
oracle's j=2 self integrals) through ``scalar._jl_triple``, and
``theorems.expansion_j2`` through ``scalar._jl_value``.  For one or two
points it costs a fraction of ``_jl_table``'s per-order numpy calls, and it
keeps numpy out of the processes that only run the closed-form cell.

Accuracy, all arithmetic binary64, checked against mpmath for l <= 50 and
|x| <= 1e3: the relative error is <= 1e-12 for |x| < l + 1, where j_l has no
zeros, and <= 1e-12 of the envelope sqrt(j_l^2 + y_l^2) beyond.  This holds
where |j_l(x)| >= 1e-300; smaller values underflow towards 0.

All functions are pure and accept scalars or numpy arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, SingularityError
from .model import _closed_form
from .scalar import (
    _MILLER_MARGIN,
    _MILLER_STARTS,
    _RESCALE_LIMIT,
    _SERIES_CUTOFF,
    _int,
    _u_from_neighbors,
    _upward_column,
    _validate,
)

__all__ = [
    "bessel_j",
    "bessel_j_prime",
    "bessel_u",
    "bessel_j_and_u",
    "lommel_first",
    "lommel_second",
]

# scalar's Miller start rule as arrays: the margin of a column at x is
# _START_MARGINS[number of bounds <= x]
_START_BOUNDS = np.array([bound for bound, _ in _MILLER_STARTS])
_START_MARGINS = np.array([margin for _, margin in _MILLER_STARTS] + [_MILLER_MARGIN])


def _double_factorial(n: int) -> float:
    out = 1.0
    while n > 1:
        out *= n
        n -= 2
    return out


def _jl_series(lmax: int, x: np.ndarray) -> np.ndarray:
    """Ascending series for all orders 0..lmax; x small and positive.

    The eleven series steps run on the whole (orders x points) block at once.
    The prefactor x**order is taken one order at a time: a single
    ``x ** orders[:, None]`` rounds differently.
    """
    block = np.empty((lmax + 1, x.size))
    for order in range(lmax + 1):
        block[order] = x**order / _double_factorial(2 * order + 1)
    m = np.arange(1, 12)[:, None]
    denominators = 2.0 * m * (2 * np.arange(lmax + 1) + 2 * m + 1)    # [m - 1, order]
    neg_x2 = -(x * x)
    term = np.ones_like(block)
    total = np.ones_like(block)
    for den in denominators[:, :, None]:
        term *= neg_x2
        term /= den
        total += term
    block *= total
    return block


def _jl_miller(top, x: np.ndarray) -> np.ndarray:
    """Downward recurrence for orders 0..max(top); x positive, x >= cutoff.

    ``top`` is an int, or one top per point.  The recurrence
    f_{n-1} = (2n+1)/x f_n - f_{n+1} starts each column (joins the running
    block) ``scalar._miller_margin(x)`` orders above its own top, from an
    arbitrary seed: 8 orders below x = 0.5, rising in steps to
    _MILLER_MARGIN = 60 from x = 32 on.  The running block holds its columns
    by descending start order, so the started ones are a prefix.  A column
    that grows past _RESCALE_LIMIT is scaled by 1e-250, together with its
    stored orders.  That check costs numpy calls, so it runs only when the
    Python-float growth bound
    |f_{n-1}| <= ((2n+1)/min(x) + 1) max(|f_n|, |f_{n+1}|)
    allows a value above half the limit (the factor 2 covers the rounding of
    the bound itself); after each check the bound restarts from the true
    maxima.  A rescale therefore happens at exactly the orders where a check
    at every order would make it, and the values are the same to the bit.
    """
    lmax = int(np.max(top))
    starts = top + _START_MARGINS[np.searchsorted(_START_BOUNDS, x, side="right")]   # scalar._miller_margin
    by_start = np.argsort(-starts, kind="stable")
    x = x[by_start]
    heads, sizes = np.unique(starts, return_counts=True)
    joins = {int(h): int(n) for h, n in zip(heads, sizes)}   # start order -> columns seeded there
    start = max(joins)
    odd = 2 * np.arange(start + 1) + 1
    coef = odd[:, None] / x                          # coef[n] = (2n+1)/x
    growth = (odd / float(x.min()) + 1.0).tolist()   # >= 1, so the bound never falls
    block = np.zeros((lmax + 1, x.size))
    f_up = f_cur = np.zeros(0)           # f_{n+1} and f_n of the started columns, a prefix
    bound = 1e-30                        # >= max(|f_n|, |f_{n+1}|)
    for order in range(start, 0, -1):
        joined = joins.get(order)
        if joined:
            f_up = np.concatenate([f_up, np.zeros(joined)])
            f_cur = np.concatenate([f_cur, np.full(joined, 1e-30)])
            started_coef, started = coef[:, :f_cur.size], block[:, :f_cur.size]
            bound = max(bound, 1e-30)
        f_up, f_cur = f_cur, started_coef[order] * f_cur - f_up
        bound *= growth[order]
        if not bound <= 0.5 * _RESCALE_LIMIT:
            big = np.abs(f_cur) > _RESCALE_LIMIT
            if big.any():
                scale = np.where(big, 1e-250, 1.0)
                f_cur = f_cur * scale
                f_up = f_up * scale
                if order <= lmax:
                    started[order:] *= scale
            bound = max(float(np.abs(f_up).max()), float(np.abs(f_cur).max()))
        if order - 1 <= lmax:
            started[order - 1] = f_cur
    # normalize against whichever of j0, j1 is larger in magnitude (row 1 exists: top > x >= cutoff)
    sx, cx = np.sin(x), np.cos(x)
    j0 = sx / x
    j1 = sx / (x * x) - cx / x
    use0 = np.abs(j0) >= np.abs(j1)
    reference = np.where(use0, j0, j1)
    raw = np.where(use0, block[0], block[1])
    block *= reference / raw
    out = np.empty_like(block)
    out[:, by_start] = block
    return out


def _jl_table(top, x: np.ndarray) -> np.ndarray:
    """Table of j_0..j_lmax at positive arguments x (1-D array, no zeros).

    ``top`` is an int, or an int array of per-point tops with maximum lmax;
    each point's rows 0..top then equal a lone table of its top, to the bit.
    """
    per_point = isinstance(top, np.ndarray)
    lmax = int(top.max()) if per_point else top
    block = np.zeros((lmax + 1, x.size))
    small = x < _SERIES_CUTOFF
    down = ~small & (x < top)
    up = ~small & ~down
    if small.any():
        block[:, small] = _jl_series(lmax, x[small])
    if down.any():
        miller = _jl_miller(top[down] if per_point else top, x[down])
        block[:len(miller), down] = miller
    if up.any():
        x_up = x[up]
        block[:, up] = _upward_column(lmax, x_up, np.sin(x_up), np.cos(x_up))
    return block


def _on_table(x, lmax, kernels) -> list:
    """Kernel values at x from one table of j_0..j_lmax at |x|: the array kernels' one evaluator.

    ``lmax`` is an int, or per-point tops of x's shape (see ``_jl_table``).
    Rejects x unless finite and real, builds the table at |x| (at x = 0,
    j_0 = 1 and the higher orders vanish) and calls
    ``kernels(table, ax, nonzero)``.  That returns a list of (values at |x|,
    odd) pairs; an odd kernel changes sign at negative x.  Returns the list
    of kernel values, floats for a scalar x and arrays of x's shape otherwise.
    """
    arr = np.asarray(x)
    if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):    # a bool, complex, str or None is no real
        raise InvalidInputError("argument must be finite and real")
    flat = arr.ravel().astype(float, copy=False)
    ax = np.abs(flat)
    nonzero = ax > 0.0
    if nonzero.all():   # the table as built
        table = _jl_table(lmax.ravel() if isinstance(lmax, np.ndarray) else lmax, ax)
    else:
        table = np.zeros((int(np.max(lmax)) + 1, flat.size))
        if nonzero.any():
            part = _jl_table(lmax.ravel()[nonzero] if isinstance(lmax, np.ndarray) else lmax, ax[nonzero])
            table[:len(part), nonzero] = part
        table[0, ~nonzero] = 1.0
    out = []
    for vals, odd in kernels(table, ax, nonzero):
        if odd:
            vals = np.where(flat < 0.0, -vals, vals)
        out.append(float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape))
    return out


def bessel_j(l: int, x):
    """Spherical Bessel function of the first kind, j_l(x).

    Parameters
    ----------
    l : int
        Nonnegative order.
    x : float or array_like
        Real argument; negative values use the parity j_l(-x) = (-1)^l j_l(x).

    Returns
    -------
    float or ndarray
    """
    l = _int("order l", l, 0)
    (vals,) = _on_table(x, l, lambda table, ax, nonzero: [(table[l].copy(), l % 2 == 1)])
    return vals


def bessel_j_prime(l: int, x):
    """Derivative j_l'(x), via j_l' = j_{l-1} - (l+1) j_l / x (and j_0' = -j_1)."""
    l = _int("order l", l, 0)

    def kernels(table, ax, nonzero):
        # parity: j_l' is even for odd l, odd for even l
        if l == 0:
            return [(-table[1], True)]
        vals = table[l - 1] - (l + 1) * table[l] / np.where(nonzero, ax, 1.0)
        # exact limits at x = 0: j_1'(0) = 1/3, higher orders 0
        vals[~nonzero] = (1.0 / 3.0) if l == 1 else 0.0
        return [(vals, l % 2 == 0)]

    (vals,) = _on_table(x, l + 1, kernels)
    return vals


def _u_from_table(l: int, table: np.ndarray, ax: np.ndarray, nonzero: np.ndarray) -> np.ndarray:
    """u_l at |x| from a j-table that reaches order l+1."""
    if l == 0:
        if not nonzero.all():
            raise SingularityError("u_0(x) = cos(x)/x is singular at x = 0")
        return np.cos(ax) / ax
    vals = _u_from_neighbors(l, table[l - 1], table[l + 1])
    if not nonzero.all():
        vals[~nonzero] = (2.0 / 3.0) if l == 1 else 0.0
    return vals


def bessel_u(l: int, x):
    """Radial curl kernel u_l(x) = x^{-1} d/dx [x j_l(x)].

    Equals [(l+1) j_{l-1}(x) - l j_{l+1}(x)] / (2l+1).  Finite at x = 0 for
    l >= 1 (u_1(0) = 2/3, u_l(0) = 0 for l >= 2); u_0(x) = cos(x)/x is
    singular at the origin.
    """
    l = _int("order l", l, 0)
    # parity: u_l(-x) = (-1)^{l+1} u_l(x)
    (vals,) = _on_table(x, l + 1, lambda table, ax, nonzero: [(_u_from_table(l, table, ax, nonzero), l % 2 == 0)])
    return vals


def bessel_j_and_u(l: int, x):
    """Evaluate (j_l(x), u_l(x)) sharing one recurrence table.

    The mode integrands need both kernels at the same points; this avoids
    building the order table twice.  Requires l >= 1.
    """
    l = _int("order l", l, 1)

    def kernels(table, ax, nonzero):
        return [(table[l].copy(), l % 2 == 1), (_u_from_table(l, table, ax, nonzero), l % 2 == 0)]

    return tuple(_on_table(x, l + 1, kernels))


def lommel_first(l: int, alpha: float, a: float) -> float:
    """Closed form of the radial self-integral of the j=2 kernel.

    Returns

        integral_0^a r^2 j_l(alpha r)^2 dr
            = (a^3 / 2) [ j_l(alpha a)^2 - j_{l+1}(alpha a) j_{l-1}(alpha a) ],

    which is strictly positive for real nonzero alpha.  For l = 0 the
    closed form uses j_{-1}(x) = cos(x)/x.  A view of the closed-form cell.
    """
    l = _int("order l", l, 0)
    return _closed_form(2, l, alpha, alpha, a, 1e-12)[0]


def lommel_second(l: int, k: float, K: float, a: float) -> float:
    """Closed form of the cross integral of the j=2 kernel at two wavenumbers.

    Returns

        integral_0^a r^2 j_l(k r) j_l(K r) dr
            = a^2 [ k j_l'(k a) j_l(K a) - K j_l(k a) j_l'(K a) ] / (K^2 - k^2)

    for K^2 != k^2 (the diagonal limit is ``lommel_first``).  Negative
    wavenumbers enter through the parity j_l(-x) = (-1)^l j_l(x).

    A view of the closed-form cell (``model.radial_integrals`` at rel_tol
    1e-12), whose near-diagonal series takes over where Lommel's difference cancels.
    """
    l = _int("order l", l, 0)
    _validate(k, K, a)
    if abs(K) == abs(k):
        raise InvalidInputError("lommel_second requires K^2 != k^2; use lommel_first")
    return _closed_form(2, l, k, K, a, 1e-12)[2]
