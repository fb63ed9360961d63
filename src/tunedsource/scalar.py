"""Spherical Bessel columns and Lommel closed forms on Python floats.

The production path of the library (the closed-form cell of
``model.radial_integrals``, and with it the ``sweep``, ``energies`` and
``tune`` commands of the CLI) runs on a fixed handful of scalars per cell.
This module holds what it needs, without numpy: the column j_0..j_lmax at
one point (``_jl_column``), the kernel u_l, Lommel's cross integral and
its near-diagonal series (``model._closed_form`` picks one) and the shared
input rules: ``_real`` (a real number, not a bool), ``_finite`` (a finite
one), ``_is_int`` and ``_int`` (an integer, numpy's included, not a bool),
and the cell's ``_validate`` (a radius up to A_MAX, whose cube is finite,
and finite k a, K a, k^2 and K^2) and ``validate_tol`` built on them, each
with one fast test on floats, and each the one statement of its rule.

``_jl_column`` is a column of ``specfun._jl_table`` to the bit: the same
series / Miller / upward regimes, the same operations in the same order.
All three regimes are one function each for both builders
(``_series_column``, ``_miller_column`` and ``_upward_column``), which the
table runs elementwise on its points; both recurrences step over their
odd factors 2n+1 directly.  A Miller column starts a number of orders
above its top that depends only on that top (``_miller_margin``: 12 up to
top 2, rising in steps to 60 from top 33 on), so every Miller point of a
table starts at the same order, and a column depends only on its argument
and its top, whatever else the table holds.  The recurrence's rescale
check runs only above start order _UNCHECKED_TOP = 86.  sin and cos come
from ``math``, which agrees with numpy's to the bit on this platform (the
test suite checks it on random points of all three regimes).

``_jl_triple(l, x)``, the (j_(l-1), j_l, j_(l+1)) a cell reads, keeps its
last _TRIPLE_MEMO results; at l = 0, Lommel's j_(-1)(x) is cos(x) / x.
The memo is exact, since a column depends only on (l, x), and bounded at
any l, since an entry holds three floats.  ``theorems.expansion_j2`` reads
the same triple for its f2, and its f0 from the cell itself.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys

from .errors import ConvergenceError, InvalidInputError, UnderflowError

# The downward recurrence of a column of top lmax starts _miller_margin(lmax)
# orders above it: the margin of the first bound in _MILLER_STARTS at or above
# lmax, else _MILLER_MARGIN, which is the margin each x < lmax needs.  The
# start's truncation error at the top is about the fall of j_n / y_n from the
# top to the start.  With top > x that fall is below 2e-19 at every top (the
# worst case is x just below 7 at top 7), so the rounding of the recurrence,
# not its start, sets the accuracy.
_MILLER_STARTS = ((2, 12), (7, 16), (16, 28), (32, 40))
_MILLER_MARGIN = 60
_SERIES_CUTOFF = 0.1
# terms of the ascending series after its first.  For x < _SERIES_CUTOFF and any
# order, t_5 < 3e-18 and t_6 < 2e-22, both under half an ulp of the sum, which
# lies in (0.998, 1): more steps leave it the same to the bit
_SERIES_STEPS = 5
_MILLER_SEED = 1e-30
_RESCALE_LIMIT = 1e250
# |f_(n-1)| <= ((2n+1)/x + 1) max(|f_n|, |f_(n+1)|) and x >= _SERIES_CUTOFF, so from a top
# start order no value passes _MILLER_SEED ((2 top + 1) / _SERIES_CUTOFF + 1)^top:
# <= 1e249, a tenth of _RESCALE_LIMIT for rounding, up to this top and not above
_UNCHECKED_TOP = 86
_EPS = sys.float_info.epsilon
_SERIES_TERMS = 40    # of the near-diagonal Lommel series, before it counts as divergent
_TRIPLE_MEMO = 128    # entries of _jl_triple's memo; a chi grid of 21 cells reads 22 triples


# the relative tolerances the library accepts
TOL_MIN, TOL_MAX = 1e-14, 1e-3
# the largest radius the library accepts, the largest double whose cube a**3 is finite
A_MAX = 5.643803094122361e+102


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
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def _shown(value) -> str:
    """repr(value) for a message; an integer past the largest index (sys.maxsize) as a phrase, since past 4300 digits it has no str."""
    return "an integer too large for an index" if _is_int(value) and abs(value) > sys.maxsize else repr(value)


def _int(name, value, lowest: int) -> int:
    """``value`` as an int; InvalidInputError unless it is an integer (``_is_int``) >= lowest that an index (and so a float) holds."""
    if not (_is_int(value) and lowest <= value <= sys.maxsize):
        raise InvalidInputError(f"{name} must be an integer >= {lowest} that an index holds, got {_shown(value)}")
    return int(value)


def _validate(k, K, a, rel_tol=1e-12) -> None:
    """Reject k, K or a that is not a finite real (``_finite``), a zero wavenumber, a radius outside (0, A_MAX], an infinite k a, K a, k^2 or K^2 and a rel_tol out of range."""
    # the fast path's one test, else each check in turn; finite squares and a <= A_MAX bound |k a| by 7.6e256
    if not (type(k) is type(K) is type(a) is type(rel_tol) is float and math.isfinite(k * k) and math.isfinite(K * K)
            and k != 0.0 and K != 0.0 and 0.0 < a <= A_MAX and TOL_MIN <= rel_tol <= TOL_MAX):
        k, K, a = (_finite(name, value) for name, value in (("k", k), ("K", K), ("a", a)))
        if k == 0.0 or K == 0.0:
            raise InvalidInputError("wavenumbers must be nonzero")
        if a <= 0.0:
            raise InvalidInputError(f"radius a must be > 0, got {a}")
        if a > A_MAX:
            raise InvalidInputError(f"radius a must be <= {A_MAX}, past which a**3 overflows, got {a}")
        if not (math.isfinite(k * a) and math.isfinite(K * a)):
            raise InvalidInputError(f"k a and K a must be finite, got k={k}, K={K}, a={a}")
        if not (math.isfinite(k * k) and math.isfinite(K * K)):    # the j = 1 reduction and the oracle's integrands form both
            raise InvalidInputError(f"k^2 and K^2 must be finite, got k={k}, K={K}")
        validate_tol(rel_tol)


def _miller_margin(lmax: int) -> int:
    """Orders between a Miller column's top lmax and its start, for every x < lmax (see _MILLER_STARTS)."""
    for bound, margin in _MILLER_STARTS:
        if lmax <= bound:
            return margin
    return _MILLER_MARGIN


def _rescale_factor(f):
    """1e-250 where |f| > _RESCALE_LIMIT and 1.0 elsewhere, or None if no value is past it; f a float or an array."""
    big = abs(f) > _RESCALE_LIMIT    # a bool at a float x, a mask at an array x
    if big is True or (big is not False and big.any()):
        return 1.0 - big + big * 1e-250


def _miller_column(lmax: int, x) -> list:
    """Unnormalized orders 0..lmax by the downward recurrence, at one float x or elementwise at an array x.

    Every column starts from _MILLER_SEED at order lmax + _miller_margin(lmax),
    so a column depends only on its own x and lmax; the loops step over the
    odd factors 2n+1.  A value past _RESCALE_LIMIT scales its column by
    1e-250, stored orders included.  The check runs only above a start order
    of _UNCHECKED_TOP, up to which no value can get there.
    """
    top = lmax + _miller_margin(lmax)
    checked = top > _UNCHECKED_TOP
    column = [0.0] * (lmax + 1)    # up front, so that an absurd lmax fails at once
    f_up, f_cur = 0.0, _MILLER_SEED
    for odd in range(2 * top + 1, 2 * lmax + 1, -2):    # orders top..lmax+1, of which nothing is stored
        f_up, f_cur = f_cur, odd / x * f_cur - f_up
        if checked and (scale := _rescale_factor(f_cur)) is not None:
            f_up, f_cur = f_up * scale, f_cur * scale
    n = lmax
    column[n] = f_cur
    for odd in range(2 * lmax + 1, 1, -2):    # orders lmax..1, each giving the order below it
        f_up, f_cur = f_cur, odd / x * f_cur - f_up
        if checked and (scale := _rescale_factor(f_cur)) is not None:
            f_up, f_cur = f_up * scale, f_cur * scale
            column[n:] = [v * scale for v in column[n:]]
        n -= 1
        column[n] = f_cur
    return column


def _j0_j1(x, sx, cx) -> list:
    """[j_0, j_1] at x from sx = sin x and cx = cos x, at one float x or elementwise at an array x."""
    return [sx / x, sx / (x * x) - cx / x]


def _upward_column(lmax: int, x, sx, cx) -> list:
    """Orders 0..lmax by the upward recurrence (stable for x >= lmax) at one float x, or elementwise at an array x."""
    column = _j0_j1(x, sx, cx) if lmax >= 1 else [sx / x]    # j_1 at order 0 only risks x * x overflowing
    f_down, f_cur = column[0], column[-1]    # (j_0, j_1); at lmax 0 the loop is empty
    for odd in range(3, 2 * lmax + 1, 2):    # f_(n+1) from orders n and n-1, odd = 2n+1
        f_down, f_cur = f_cur, odd / x * f_cur - f_down
        column.append(f_cur)
    return column


def _series_sum(x, divisors):
    """j_n(x) / s_n(x) = 1 + t_1 + ... + t_5, t_m = t_(m-1) (-x^2) / divisors[m - 1]; floats, or arrays elementwise."""
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
    """``tuple(specfun._jl_table(lmax, np.array([x]))[:, 0])`` to the bit, at one float x >= 0, by the table's regime functions."""
    if x < _SERIES_CUTOFF:    # the steps of order n divide by 2m(2n+2m+1), m = 1.._SERIES_STEPS
        steps = range(1, _SERIES_STEPS + 1)
        sums = (_series_sum(x, [2 * m * (2 * n + 2 * m + 1) for m in steps]) for n in range(lmax + 1))
        return tuple(_series_column(x, sums))
    sx, cx = math.sin(x), math.cos(x)
    if x >= lmax:
        return tuple(_upward_column(lmax, x, sx, cx))
    column = _miller_column(lmax, x)
    j0, j1 = _j0_j1(x, sx, cx)
    ratio = j0 / column[0] if abs(j0) >= abs(j1) else j1 / column[1]
    return tuple([v * ratio for v in column])


@functools.lru_cache(maxsize=_TRIPLE_MEMO)
def _jl_triple(l: int, x: float) -> tuple:
    """(j_(l-1), j_l, j_(l+1)) at x > 0 from ``_jl_column(l + 1, x)``, l >= 0, with j_(-1)(x) = cos(x) / x."""
    x = float(x)
    if l == 0:
        jm = math.cos(x) / x if x else math.inf
        if not math.isfinite(jm):    # x below 1 / sys.float_info.max, 0.0 included
            raise UnderflowError(f"the argument k a = {x} of j_(-1) = cos(k a) / (k a) underflows: j_(-1) overflows")
        return (jm, *_jl_column(1, x))
    return _jl_column(l + 1, x)[l - 1:]


def _u_from_neighbors(l: int, jm, jp):
    """u_l = [(l+1) j_{l-1} - l j_{l+1}] / (2l+1), l >= 1; floats or arrays."""
    return ((l + 1) * jm - l * jp) / (2 * l + 1)


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
