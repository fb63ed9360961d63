"""Spherical Bessel kernels and their closed-form radial integrals.

The radiating-source machinery is built from two radial kernels,

    j_l(x)  -- spherical Bessel function of the first kind,
    u_l(x)  =  x^{-1} d/dx [x j_l(x)]
            =  [(l+1) j_{l-1}(x) - l j_{l+1}(x)] / (2l+1),

together with the closed form of the radial self-integral (Lommel's first
integral) and of the cross integral of two kernels at different wavenumbers
(Lommel's second integral).

Evaluation strategy: one table of orders 0..lmax per call.  Arguments below
0.1 take an ascending series, evaluated on the whole (orders x points) block
at once.  Arguments below lmax take the downward (Miller) recurrence with
normalization.  Other arguments take the upward recurrence.  Each point's
value depends only on its own argument and lmax, not on the other points of
the table.

Two builders make such a table, with the same bits.  ``_jl_table`` runs
each recurrence order as numpy calls over all points; its Miller overflow
check runs only when a Python-float growth bound allows an overflow, so a
step costs two numpy calls (three for the orders it stores).  The array
kernels (``bessel_j`` and friends) and the quadrature integrands use it,
where a call holds hundreds of points.  The four array kernels share one
evaluator, ``_on_table``: it rejects non-finite x, builds the table at |x|
(x = 0 included) and applies each kernel's parity, so a kernel only says
which table rows it combines.  ``_jl_rows`` runs the Miller and
upward recurrences on Python floats, one point at a time, and returns
lists.  The callers that hold a fixed handful of scalars use it:
``lommel_first``, ``lommel_second``, the closed-form cell of
``model.radial_integrals`` and ``theorems.expansion_j2``.  For one or two
points it costs a fraction of ``_jl_table``'s per-order numpy calls.

Accuracy, all arithmetic binary64, checked against mpmath for l <= 50 and
|x| <= 1e3: the relative error is <= 1e-12 for |x| < l + 1, where j_l has no
zeros, and <= 1e-12 of the envelope sqrt(j_l^2 + y_l^2) beyond.  This holds
where |j_l(x)| >= 1e-300; smaller values underflow towards 0.

All functions are pure and accept scalars or numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError, SingularityError

__all__ = [
    "bessel_j",
    "bessel_j_prime",
    "bessel_u",
    "bessel_j_and_u",
    "lommel_first",
    "lommel_second",
]

# orders above the head start of the downward recurrence; enough for full
# binary64 accuracy whenever x < lmax (dominance grows at least like 2x
# per step there)
_MILLER_MARGIN = 60
_SERIES_CUTOFF = 0.1
_RESCALE_LIMIT = 1e250
_EPS = float(np.finfo(float).eps)


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


def _jl_miller(lmax: int, x: np.ndarray) -> np.ndarray:
    """Downward recurrence for all orders 0..lmax; x positive, x >= cutoff.

    The recurrence f_{n-1} = (2n+1)/x f_n - f_{n+1} starts _MILLER_MARGIN
    orders above lmax from an arbitrary seed.  A column that grows past
    _RESCALE_LIMIT is scaled by 1e-250, together with its stored orders.
    That check costs numpy calls, so it runs only when the Python-float
    growth bound |f_{n-1}| <= ((2n+1)/min(x) + 1) max(|f_n|, |f_{n+1}|)
    allows a value above half the limit (the factor 2 covers the rounding of
    the bound itself); after each check the bound restarts from the true
    maxima.  A rescale therefore happens at exactly the orders where a check
    at every order would make it, and the values are the same to the bit.
    """
    start = lmax + _MILLER_MARGIN
    odd = 2 * np.arange(start + 1) + 1
    coef = odd[:, None] / x                          # coef[n] = (2n+1)/x
    growth = (odd / float(x.min()) + 1.0).tolist()   # >= 1, so the bound never falls
    block = np.zeros((lmax + 1, x.size))
    f_up = np.zeros_like(x)              # f_{n+1}
    f_cur = np.full_like(x, 1e-30)       # f_n, arbitrary seed
    bound = 1e-30                        # >= max(|f_n|, |f_{n+1}|)
    for order in range(start, 0, -1):
        f_up, f_cur = f_cur, coef[order] * f_cur - f_up
        bound *= growth[order]
        if not bound <= 0.5 * _RESCALE_LIMIT:
            big = np.abs(f_cur) > _RESCALE_LIMIT
            if big.any():
                scale = np.where(big, 1e-250, 1.0)
                f_cur = f_cur * scale
                f_up = f_up * scale
                if order <= lmax:
                    block[order:, :] *= scale
            bound = max(float(np.abs(f_up).max()), float(np.abs(f_cur).max()))
        if order - 1 <= lmax:
            block[order - 1] = f_cur
    # normalize against whichever of j0, j1 is larger in magnitude
    sx, cx = np.sin(x), np.cos(x)
    j0 = sx / x
    j1 = sx / (x * x) - cx / x
    use0 = np.abs(j0) >= np.abs(j1)
    reference = np.where(use0, j0, j1)
    raw = np.where(use0, block[0], block[1] if lmax >= 1 else block[0])
    block *= reference / raw
    return block


def _jl_upward(lmax: int, x: np.ndarray) -> np.ndarray:
    """Upward recurrence for all orders 0..lmax; stable for x >= lmax."""
    block = np.empty((lmax + 1, x.size))
    sx, cx = np.sin(x), np.cos(x)
    block[0] = sx / x
    if lmax >= 1:
        block[1] = sx / (x * x) - cx / x
    for order in range(1, lmax):
        block[order + 1] = (2 * order + 1) / x * block[order] - block[order - 1]
    return block


def _jl_table(lmax: int, x: np.ndarray) -> np.ndarray:
    """Table of j_0..j_lmax at positive arguments x (1-D array, no zeros)."""
    block = np.empty((lmax + 1, x.size))
    small = x < _SERIES_CUTOFF
    down = ~small & (x < lmax)
    up = ~small & ~down
    if small.any():
        block[:, small] = _jl_series(lmax, x[small])
    if down.any():
        block[:, down] = _jl_miller(lmax, x[down])
    if up.any():
        block[:, up] = _jl_upward(lmax, x[up])
    return block


def _miller_column(lmax: int, x: float, sx: float, cx: float) -> list:
    """``_jl_miller`` for one point on Python floats: the same operations in the same order.

    The rescale check runs at every order; ``_jl_miller`` rescales a column
    at exactly those orders (see its docstring), so the values are the same
    to the bit.
    """
    limit = _RESCALE_LIMIT
    f_up, f_cur = 0.0, 1e-30
    for order in range(lmax + _MILLER_MARGIN, lmax, -1):    # above the table
        f_up, f_cur = f_cur, (2 * order + 1) / x * f_cur - f_up
        if abs(f_cur) > limit:
            f_cur *= 1e-250
            f_up *= 1e-250
    column = [0.0] * lmax + [f_cur]
    for order in range(lmax, 0, -1):
        f_up, f_cur = f_cur, (2 * order + 1) / x * f_cur - f_up
        if abs(f_cur) > limit:
            f_cur *= 1e-250
            f_up *= 1e-250
            column[order:] = [v * 1e-250 for v in column[order:]]
        column[order - 1] = f_cur
    j0 = sx / x
    j1 = sx / (x * x) - cx / x
    ratio = j0 / column[0] if abs(j0) >= abs(j1) else j1 / column[1]
    return [v * ratio for v in column]


def _upward_column(lmax: int, x: float, sx: float, cx: float) -> list:
    """``_jl_upward`` for one point on Python floats."""
    column = [sx / x]
    if lmax >= 1:
        column.append(sx / (x * x) - cx / x)
    for order in range(1, lmax):
        column.append((2 * order + 1) / x * column[order] - column[order - 1])
    return column


def _jl_rows(lmax: int, xs) -> list:
    """``_jl_table(lmax, np.array(xs)).tolist()`` to the bit, for a handful of points.

    The Miller and upward recurrences run on Python floats, one point at a
    time, which for a few points costs a fraction of ``_jl_table``'s numpy
    calls per order.  sin and cos come from one numpy call over the points,
    and arguments below the series cutoff still take ``_jl_series``: numpy's
    ``x**order`` rounds differently from Python's.
    """
    x = np.asarray(xs, dtype=float)
    xs = x.tolist()
    small = [xi for xi in xs if xi < _SERIES_CUTOFF]
    series = iter(_jl_series(lmax, np.array(small)).T.tolist()) if small else None
    columns = []
    for xi, sx, cx in zip(xs, np.sin(x).tolist(), np.cos(x).tolist()):
        if xi < _SERIES_CUTOFF:
            columns.append(next(series))
        elif xi < lmax:
            columns.append(_miller_column(lmax, xi, sx, cx))
        else:
            columns.append(_upward_column(lmax, xi, sx, cx))
    return [list(row) for row in zip(*columns)]


def _jl_value(l: int, x: float) -> float:
    """``bessel_j(l, x)`` to the bit at one finite float, from ``_jl_rows``."""
    value = _jl_rows(l, [abs(x)])[l][0]
    return -value if x < 0.0 and l % 2 == 1 else value


def _validate_order(l: int, lowest: int = 0) -> int:
    if not isinstance(l, (int, np.integer)) or isinstance(l, bool):
        raise InvalidInputError(f"order l must be an integer, got {l!r}")
    if l < lowest:
        raise InvalidInputError(f"order l must be >= {lowest}, got {l}")
    return int(l)


def _on_table(x, lmax: int, kernels) -> list:
    """Kernel values at x from one table of j_0..j_lmax at |x|: the array kernels' one evaluator.

    Rejects non-finite x, builds the table at |x| (at x = 0, j_0 = 1 and the
    higher orders vanish) and calls ``kernels(table, ax, nonzero)``.  That
    returns a list of (values at |x|, odd) pairs; an odd kernel changes sign
    at negative x.  Returns the list of kernel values, floats for a scalar x
    and arrays of x's shape otherwise.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("argument must be finite")
    flat = arr.ravel()
    ax = np.abs(flat)
    nonzero = ax > 0.0
    table = np.zeros((lmax + 1, flat.size))
    if nonzero.any():
        table[:, nonzero] = _jl_table(lmax, ax[nonzero])
    if not nonzero.all():
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
    l = _validate_order(l)
    (vals,) = _on_table(x, l, lambda table, ax, nonzero: [(table[l].copy(), l % 2 == 1)])
    return vals


def bessel_j_prime(l: int, x):
    """Derivative j_l'(x), via j_l' = j_{l-1} - (l+1) j_l / x (and j_0' = -j_1)."""
    l = _validate_order(l)

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


def _u_from_neighbors(l: int, jm, jp):
    """u_l = [(l+1) j_{l-1} - l j_{l+1}] / (2l+1), l >= 1; floats or arrays."""
    return ((l + 1) * jm - l * jp) / (2 * l + 1)


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
    l = _validate_order(l)
    # parity: u_l(-x) = (-1)^{l+1} u_l(x)
    (vals,) = _on_table(x, l + 1, lambda table, ax, nonzero: [(_u_from_table(l, table, ax, nonzero), l % 2 == 0)])
    return vals


def bessel_j_and_u(l: int, x):
    """Evaluate (j_l(x), u_l(x)) sharing one recurrence table.

    The mode integrands need both kernels at the same points; this avoids
    building the order table twice.  Requires l >= 1.
    """
    l = _validate_order(l, 1)

    def kernels(table, ax, nonzero):
        return [(table[l].copy(), l % 2 == 1), (_u_from_table(l, table, ax, nonzero), l % 2 == 0)]

    return tuple(_on_table(x, l + 1, kernels))


def _lommel_first_from(a: float, jm: float, j: float, jp: float) -> float:
    """(a^3 / 2) [j_l^2 - j_{l+1} j_{l-1}] from (j_{l-1}, j_l, j_{l+1}) at |alpha| a."""
    return 0.5 * a**3 * (j * j - jp * jm)


def _lommel_second_from(a, k, K, j_k, jp_k, j_K, jp_K):
    """Cross integral of the j=2 kernel at 0 < k != K from table values.

    Takes j_l and j_{l+1} at k a and at K a, and returns the value

        a [ K a j_l(ka) j_{l+1}(Ka) - k a j_{l+1}(ka) j_l(Ka) ] / (K^2 - k^2)

    with its rounding error, eps a (|t1| + |t2|) / |K^2 - k^2| for the two
    numerator terms t1, t2.  This is Lommel's second integral with
    x j_l' = l j_l - x j_{l+1}, which drops the l j_l(ka) j_l(Ka) terms that
    would cancel.  Swapping (k, K) swaps t1 and t2 and negates (K - k), so the
    value is symmetric to the bit; K - k is exact when K and k are close.
    """
    t1 = K * a * jp_K * j_k
    t2 = k * a * jp_k * j_K
    den = (K - k) * (K + k)
    return a * (t1 - t2) / den, _EPS * a * (abs(t1) + abs(t2)) / abs(den)


def lommel_first(l: int, alpha: float, a: float) -> float:
    """Closed form of the radial self-integral of the j=2 kernel.

    Returns

        integral_0^a r^2 j_l(alpha r)^2 dr
            = (a^3 / 2) [ j_l(alpha a)^2 - j_{l+1}(alpha a) j_{l-1}(alpha a) ],

    which is strictly positive for real nonzero alpha.  For l = 0 the
    closed form uses j_{-1}(x) = cos(x)/x.
    """
    l = _validate_order(l)
    if not (np.isfinite(alpha) and np.isfinite(a)):
        raise InvalidInputError("alpha and a must be finite")
    if a <= 0.0:
        raise InvalidInputError(f"radius a must be > 0, got {a}")
    if alpha == 0.0:
        raise InvalidInputError("alpha must be nonzero")
    x = abs(alpha) * a  # the integrand is even in alpha
    column = [row[0] for row in _jl_rows(l + 1, [x])]
    jlm1 = math.cos(x) / x if l == 0 else column[l - 1]
    return _lommel_first_from(a, jlm1, column[l], column[l + 1])


def lommel_second(l: int, k: float, K: float, a: float) -> float:
    """Closed form of the cross integral of the j=2 kernel at two wavenumbers.

    Returns

        integral_0^a r^2 j_l(k r) j_l(K r) dr
            = a^2 [ k j_l'(k a) j_l(K a) - K j_l(k a) j_l'(K a) ] / (K^2 - k^2)

    for K^2 != k^2 (the diagonal limit is ``lommel_first``).  Negative
    wavenumbers enter through the parity j_l(-x) = (-1)^l j_l(x).
    """
    l = _validate_order(l)
    if not all(np.isfinite(v) for v in (k, K, a)):
        raise InvalidInputError("k, K and a must be finite")
    if a <= 0.0:
        raise InvalidInputError(f"radius a must be > 0, got {a}")
    if k == 0.0 or K == 0.0:
        raise InvalidInputError("wavenumbers must be nonzero")
    if K * K == k * k:
        raise InvalidInputError("lommel_second requires K^2 != k^2; use lommel_first")
    ak, aK = abs(k), abs(K)
    (j_k, j_K), (jp_k, jp_K) = _jl_rows(l + 1, [ak * a, aK * a])[l:]
    value, _ = _lommel_second_from(a, ak, aK, j_k, jp_k, j_K, jp_K)
    if l % 2 == 1 and (k < 0.0) != (K < 0.0):
        value = -value
    return value
