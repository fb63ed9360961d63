"""Spherical Bessel rows and Lommel closed forms on Python floats.

The production path of the library (the closed-form cell of
``model.radial_integrals``, and with it the ``sweep``, ``energies`` and
``tune`` commands of the CLI) runs on a fixed handful of scalars per cell.
This module holds what it needs, without numpy: the table of j_0..j_lmax at
a few points (``_jl_rows``), the kernel u_l, Lommel's integrals from that
table's values (with a near-diagonal series) and the shared input checks.

``_jl_rows`` is ``specfun._jl_table`` to the bit: the same series / Miller /
upward regimes, the same operations in the same order, one point at a time.
sin and cos come from ``math``, which agrees with numpy's to the bit on this
platform (the test suite checks it on random points of all three regimes).
Arguments below the series cutoff still take numpy's ``specfun._jl_series``,
imported on first use: numpy's ``x**order`` rounds differently from Python's.
"""

from __future__ import annotations

import math
import sys

from .errors import ConvergenceError, InvalidInputError

# orders above the head start of the downward recurrence; enough for full
# binary64 accuracy whenever x < lmax (dominance grows at least like 2x
# per step there)
_MILLER_MARGIN = 60
_SERIES_CUTOFF = 0.1
_RESCALE_LIMIT = 1e250
_EPS = sys.float_info.epsilon
_SERIES_TERMS = 40    # of the near-diagonal Lommel series, before it counts as divergent


# the relative tolerances the library accepts
TOL_MIN, TOL_MAX = 1e-14, 1e-3


def validate_tol(rel_tol):
    """Reject a relative tolerance outside [TOL_MIN, TOL_MAX]."""
    if not (TOL_MIN <= rel_tol <= TOL_MAX):
        raise InvalidInputError(f"rel_tol must lie in [1e-14, 1e-3], got {rel_tol}")


def _validate(k, K, a, rel_tol=1e-12) -> None:
    """Reject non-finite k, K or a, a zero wavenumber, a radius a <= 0 and a rel_tol out of range."""
    if not all(math.isfinite(v) for v in (k, K, a)):
        raise InvalidInputError(f"k, K and a must be finite, got k={k}, K={K}, a={a}")
    if k == 0.0 or K == 0.0:
        raise InvalidInputError("wavenumbers must be nonzero")
    if a <= 0.0:
        raise InvalidInputError(f"radius a must be > 0, got {a}")
    validate_tol(rel_tol)


def _miller_column(lmax: int, x: float, sx: float, cx: float) -> list:
    """``specfun._jl_miller`` for one point: the same operations in the same order.

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
    """``specfun._jl_upward`` for one point."""
    column = [sx / x]
    if lmax >= 1:
        column.append(sx / (x * x) - cx / x)
    for order in range(1, lmax):
        column.append((2 * order + 1) / x * column[order] - column[order - 1])
    return column


def _jl_rows(lmax: int, xs) -> list:
    """``specfun._jl_table(lmax, np.array(xs)).tolist()`` to the bit, for a handful of points.

    The Miller and upward recurrences run on Python floats, one point at a
    time, which for a few points costs a fraction of ``_jl_table``'s numpy
    calls per order.  Arguments below the series cutoff take
    ``specfun._jl_series``, so only they load numpy.
    """
    xs = [float(x) for x in xs]
    small = [x for x in xs if x < _SERIES_CUTOFF]
    if small:
        import numpy as np

        from .specfun import _jl_series

        series = iter(_jl_series(lmax, np.array(small)).T.tolist())
    columns = []
    for x in xs:
        if x < _SERIES_CUTOFF:
            columns.append(next(series))
        elif x < lmax:
            columns.append(_miller_column(lmax, x, math.sin(x), math.cos(x)))
        else:
            columns.append(_upward_column(lmax, x, math.sin(x), math.cos(x)))
    return [list(row) for row in zip(*columns)]


def _jl_value(l: int, x: float) -> float:
    """``specfun.bessel_j(l, x)`` to the bit at one finite float, from ``_jl_rows``."""
    value = _jl_rows(l, [abs(x)])[l][0]
    return -value if x < 0.0 and l % 2 == 1 else value


def _u_from_neighbors(l: int, jm, jp):
    """u_l = [(l+1) j_{l-1} - l j_{l+1}] / (2l+1), l >= 1; floats or arrays."""
    return ((l + 1) * jm - l * jp) / (2 * l + 1)


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


def _lommel_second_series(l, a, x, y, jm, j, jp):
    """``_lommel_second_from`` at x = k a, y = K a near x, from (j_{l-1}, j_l, j_{l+1}) at x.

    Lommel's numerator is j_l(x) q(y) - q(x) j_l(y) with q(y) = y j_{l+1}(y);
    over d = y - x it is a Taylor series S(d), summed to the first term below
    eps |S|, and the integral is a^3 S(d) / (x + y).  The coefficients of j_l
    and j_{l+1} follow from the Bessel equation; the d^0 term is Lommel's
    first bracket.  (The terms of the j_l' form cancel as l^2 / x^2.)
    """
    c = [0.0, 0.0, j, l / x * j - jp]    # c[n + 2] = j_l^(n)(x) / n!, with c_{-2} = c_{-1} = 0
    p = [0.0, 0.0, jp, j - (l + 2) / x * jp]    # the same for j_{l+1}
    total, power = x * (j * j - jm * jp), 1.0
    for m in range(1, _SERIES_TERMS + 1):
        for f, order in ((c, l), (p, l + 1)):
            f.append(-(2 * x * m * m * f[m + 2] + ((m - 1) * m + x * x - order * (order + 1)) * f[m + 1]
                       + 2 * x * f[m] + f[m - 1]) / (x * x * m * (m + 1)))
        power *= y - x
        term = power * (j * (x * p[m + 3] + p[m + 2]) - x * jp * c[m + 3])
        total += term
        if abs(term) <= _EPS * abs(total):
            return a**3 * total / (x + y)
    raise ConvergenceError(f"near-diagonal series at k a={x}, K a={y} did not converge", a**3 * total / (x + y))
