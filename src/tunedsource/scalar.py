"""Spherical Bessel columns and Lommel closed forms on Python floats.

The production path of the library (the closed-form cell of
``model.radial_integrals``, and with it the ``sweep``, ``energies`` and
``tune`` commands of the CLI) runs on a fixed handful of scalars per cell.
This module holds what it needs, without numpy: the column j_0..j_lmax at
one point (``_jl_column``), the kernel u_l, Lommel's integrals from a
column's values (with a near-diagonal series; ``model._closed_form`` alone
picks one) and the shared input rules: ``_real`` (a real number, not a
bool), ``_finite`` (a finite one), ``_is_int`` and ``_int`` (an integer,
numpy's included, not a bool), and the cell's ``_validate`` and
``validate_tol`` built on them.

``_jl_column`` is a column of ``specfun._jl_table`` to the bit: the same
series / Miller / upward regimes, the same operations in the same order.
The series and upward regimes are one function each for both builders
(``_series_column`` and ``_upward_column``), which the table runs
elementwise on its points.  Both start a Miller column a number of orders
above its top that depends only on its own argument (``_miller_margin``: 8
below x = 0.5, rising in steps to 60 from x = 32 on), so a column depends
only on its argument and its top, whatever else the table holds.  sin and
cos come from ``math``, which agrees with numpy's to the bit on this
platform (the test suite checks it on random points of all three regimes).

``_jl_triple(l, x)``, the (j_(l-1), j_l, j_(l+1)) a cell reads, keeps its
last _TRIPLE_MEMO results; at l = 0, Lommel's j_(-1)(x) is cos(x) / x.
The memo is exact, since a column depends only on (l, x), and bounded at
any l, since an entry holds three floats.  ``theorems.expansion_j2`` reads
the same triple, so its f0 is the cell's 1 / N_2 to the bit.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys

from .errors import ConvergenceError, InvalidInputError, UnderflowError

# The downward recurrence of a column at x starts _miller_margin(x) orders
# above its top: the margin of the first bound in _MILLER_STARTS above x,
# else _MILLER_MARGIN.  The start's truncation error at the top is about the
# fall of j_n / y_n from the top to the start.  With top > x that fall is
# below 2e-19 in every bucket (the worst case is x just below 7 at top 7),
# so the rounding of the recurrence, not its start, sets the accuracy.
_MILLER_STARTS = ((0.5, 8), (2.0, 12), (7.0, 16), (16.0, 28), (32.0, 40))
_MILLER_MARGIN = 60
_SERIES_CUTOFF = 0.1
_SERIES_STEPS = 11    # terms of the ascending series after its first; below the cutoff the next is < 1e-49
_RESCALE_LIMIT = 1e250
_EPS = sys.float_info.epsilon
_SERIES_TERMS = 40    # of the near-diagonal Lommel series, before it counts as divergent
_TRIPLE_MEMO = 128    # entries of _jl_triple's memo; a chi grid of 21 cells reads 22 triples


# the relative tolerances the library accepts
TOL_MIN, TOL_MAX = 1e-14, 1e-3


def validate_tol(rel_tol):
    """Reject a relative tolerance that is not a real number (``_real``) or lies outside [TOL_MIN, TOL_MAX]."""
    if type(rel_tol) is not float:    # the fast path's one test
        _real("rel_tol", rel_tol)
    if not (TOL_MIN <= rel_tol <= TOL_MAX):
        raise InvalidInputError(f"rel_tol must lie in [1e-14, 1e-3], got {rel_tol}")


def _real(name, value):
    """``value`` as a float; InvalidInputError unless it is a real number and not a bool."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:    # an integer past the float range; past 4300 digits it has no str
        raise InvalidInputError(f"{name} must be finite, got a value too large for a float") from None


def _finite(name, value):
    """``value`` as a float; InvalidInputError unless it is a real number (``_real``) and finite."""
    value = _real(name, value)
    if not math.isfinite(value):
        raise InvalidInputError(f"{name} must be finite, got {value}")
    return value


def _is_int(value) -> bool:
    """True for an integer other than a bool; ``numbers.Integral`` admits numpy's integers without importing numpy."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _int(name, value, lowest: int) -> int:
    """``value`` as an int; InvalidInputError unless it is an integer (``_is_int``) >= lowest."""
    if not (_is_int(value) and value >= lowest):
        raise InvalidInputError(f"{name} must be an integer >= {lowest}, got {value!r}")
    return int(value)


def _validate(k, K, a, rel_tol=1e-12) -> None:
    """Reject k, K or a that is not a finite real (``_finite``), a zero wavenumber, a radius a <= 0 and a rel_tol out of range."""
    if not (type(k) is type(K) is type(a) is float    # the fast path's one test, then finiteness
            and math.isfinite(k) and math.isfinite(K) and math.isfinite(a)):
        for name, value in (("k", k), ("K", K), ("a", a)):
            _finite(name, value)
    if k == 0.0 or K == 0.0:
        raise InvalidInputError("wavenumbers must be nonzero")
    if a <= 0.0:
        raise InvalidInputError(f"radius a must be > 0, got {a}")
    validate_tol(rel_tol)


def _miller_margin(x: float) -> int:
    """Orders between a Miller column's top and its start at argument x (see _MILLER_STARTS)."""
    for bound, margin in _MILLER_STARTS:
        if x < bound:
            return margin
    return _MILLER_MARGIN


def _miller_column(lmax: int, x: float, sx: float, cx: float) -> list:
    """``specfun._jl_miller`` for one point: the same operations in the same order.

    The column starts _miller_margin(x) orders above lmax.  The rescale
    check runs at every order; ``_jl_miller`` rescales a column at exactly
    those orders (see its docstring), so the values are the same to the bit.
    """
    limit = _RESCALE_LIMIT
    f_up, f_cur = 0.0, 1e-30
    for order in range(lmax + _miller_margin(x), lmax, -1):    # above the table
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
    j0, j1 = _j0_j1(x, sx, cx)
    ratio = j0 / column[0] if abs(j0) >= abs(j1) else j1 / column[1]
    return [v * ratio for v in column]


def _j0_j1(x, sx, cx) -> list:
    """[j_0, j_1] at x from sx = sin x and cx = cos x, at one float x or elementwise at an array x."""
    return [sx / x, sx / (x * x) - cx / x]


def _upward_column(lmax: int, x, sx, cx) -> list:
    """Orders 0..lmax by the upward recurrence (stable for x >= lmax) at one float x, or elementwise at an array x."""
    column = _j0_j1(x, sx, cx) if lmax >= 1 else [sx / x]    # j_1 at order 0 only risks x * x overflowing
    for order in range(1, lmax):
        column.append((2 * order + 1) / x * column[order] - column[order - 1])
    return column


def _series_sum(x, divisors):
    """j_n(x) / s_n(x) = 1 + t_1 + ... + t_11, t_m = t_(m-1) (-x^2) / divisors[m - 1]; floats, or arrays elementwise."""
    neg_x2 = -(x * x)
    term = total = 1.0
    for divisor in divisors:
        term = term * neg_x2 / divisor
        total = total + term
    return total


def _series_column(x, sums) -> list:
    """Orders n = 0, 1, ... at 0 < x < _SERIES_CUTOFF by the ascending series s_n(x) sums[n]; x a float or an array.

    s_n(x) = x^n / (2n+1)!! is the running product s_0 = 1, s_n = s_(n-1) x / (2n+1),
    and sums[n] is ``_series_sum`` of order n.  Each step is one correctly
    rounded IEEE operation, so floats and numpy arrays give the same bits.
    Against mpmath, for l <= 50 and 1e-12 <= x < 0.1, j_l is within 2e-15
    relative wherever it is above 1e-300.
    """
    column, s = [], 1.0
    for n, total in enumerate(sums):
        column.append(s * total)
        s = s * x / (2 * n + 3)    # s_(n+1)
    return column


def _jl_column(lmax: int, x: float) -> tuple:
    """``tuple(specfun._jl_table(lmax, np.array([x]))[:, 0])`` to the bit, at one float x >= 0."""
    if x < _SERIES_CUTOFF:    # the steps of order n divide by 2m(2n+2m+1), m = 1.._SERIES_STEPS
        steps = range(1, _SERIES_STEPS + 1)
        sums = (_series_sum(x, [2 * m * (2 * n + 2 * m + 1) for m in steps]) for n in range(lmax + 1))
        return tuple(_series_column(x, sums))
    recurrence = _miller_column if x < lmax else _upward_column
    return tuple(recurrence(lmax, x, math.sin(x), math.cos(x)))


@functools.lru_cache(maxsize=_TRIPLE_MEMO)
def _jl_triple(l: int, x: float) -> tuple:
    """(j_(l-1), j_l, j_(l+1)) at x > 0 from ``_jl_column(l + 1, x)``, l >= 0, with j_(-1)(x) = cos(x) / x."""
    x = float(x)
    if l == 0:
        if x == 0.0:
            raise UnderflowError("the argument k a of j_(-1) = cos(k a) / (k a) underflows to 0")
        return (math.cos(x) / x, *_jl_column(1, x))
    return _jl_column(l + 1, x)[l - 1:]


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
    value is symmetric to the bit; K - k is exact when K and k are close.  An
    underflowed K^2 - k^2 raises UnderflowError.
    """
    t1 = K * a * jp_K * j_k
    t2 = k * a * jp_k * j_K
    den = (K - k) * (K + k)
    if den == 0.0:    # K != k, so K - k is nonzero and the product underflowed
        raise UnderflowError(f"K^2 - k^2 underflows to 0 at k={k}, K={K}")
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
