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

Evaluation strategy: one table of orders 0..lmax per call, in three regimes
by argument: an ascending series below 0.1; below lmax, the downward
(Miller) recurrence with normalization, started ``scalar._miller_margin(lmax)``
orders above lmax (12 up to lmax 2, up to 60 from lmax 33 on); beyond, the
upward recurrence.  A point's value depends only on its own argument and
lmax, so a batch of points gives each the column of a lone table.

Two builders make such a table, with the same bits; all three regimes are
one ``scalar`` function each for both (``_series_column``, ``_miller_column``
and ``_upward_column``).  ``_jl_table``, here, runs each order as numpy calls
over all points, and each series step on the whole (orders x points) block.
All its Miller columns start at one order, and the recurrence's rescale
check runs only above start order 86.  The quadrature integrands
and the four array kernels (``bessel_j`` and friends) use it, where a call
holds hundreds of points.  The kernels share one evaluator, ``_on_table``:
it rejects x unless finite and real, builds the table at |x| (x = 0 takes
the series regime) and applies each kernel's parity, so a kernel only says
which table rows it combines.  ``scalar._jl_column`` builds the column of one
point on Python floats, with ``math``'s sin and cos: for one or two points
it costs a fraction of ``_jl_table``'s numpy calls, and it never imports
numpy.  The closed-form cell reads it through ``scalar._jl_triple``, and so
do the Lommel views, the oracle's j=2 self integrals and
``theorems.expansion_j2``.

Accuracy, all arithmetic binary64, checked against mpmath for l <= 50 and
|x| <= 1e3: the relative error is <= 1e-12 for |x| < l + 1, where j_l has no
zeros, and <= 1e-12 of the envelope sqrt(j_l^2 + y_l^2) beyond.  This holds
where |j_l(x)| >= 1e-300; smaller values underflow towards 0.

All functions are pure and accept scalars or numpy arrays.  Importing the
module loads no numpy: ``_jl_table``, ``_on_table`` and ``_u_from_table``
import it when they run, so the Lommel views, which read the closed-form
cell, never load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import InvalidInputError, SingularityError, UnderflowError
from .model import _closed_form
from .scalar import (
    _SERIES_CUTOFF,
    _SERIES_STEPS,
    _int,
    _j0_j1,
    _miller_column,
    _series_column,
    _series_sum,
    _u_from_neighbors,
    _upward_column,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "bessel_j",
    "bessel_j_prime",
    "bessel_u",
    "bessel_j_and_u",
    "lommel_first",
    "lommel_second",
]


def _jl_table(lmax: int, x: np.ndarray) -> np.ndarray:
    """Table of j_0..j_lmax at arguments x >= 0 (1-D array), by ``scalar``'s regime functions.

    One ``_miller_column`` call takes the Miller points, all from the start
    order of top lmax; its rescale check runs only above start order 86.
    The upward points run with overflow warnings off: past x ~ 1.3e154, x * x
    is inf, and j_1's term sin x / (x * x), below an ulp of cos x / x, is 0.0.
    At x = 0 the series regime gives j_0 = 1.0 and +0.0 above it, since its
    running prefactor x^n / (2n+1)!! multiplies by x.
    """
    import numpy as np

    block = np.zeros((lmax + 1, x.size))
    small = x < _SERIES_CUTOFF
    down = ~small & (x < lmax)
    up = ~small & ~down
    if small.any():
        x_small = x[small]
        m = np.arange(1, _SERIES_STEPS + 1)[:, None, None]
        divisors = 2.0 * m * (2 * np.arange(lmax + 1)[:, None] + 2 * m + 1)    # [m - 1, order, 0]: scalar._series_divisors(order)
        block[:, small] = _series_column(x_small, _series_sum(x_small, divisors))    # each step on the whole block
    if down.any():
        x_down = x[down]
        column = _miller_column(lmax, x_down)
        j0, j1 = _j0_j1(x_down, np.sin(x_down), np.cos(x_down))
        use0 = np.abs(j0) >= np.abs(j1)    # normalize against the larger of j0, j1 (row 1 exists: lmax > x)
        block[:, down] = np.array(column) * (np.where(use0, j0, j1) / np.where(use0, column[0], column[1]))
    if up.any():
        x_up = x[up]
        with np.errstate(over="ignore"):
            block[:, up] = _upward_column(lmax, x_up, np.sin(x_up), np.cos(x_up))
    return block


def _on_table(x, lmax, kernels) -> list:
    """Kernel values at x from one table of j_0..j_lmax at |x|: the array kernels' one evaluator.

    Rejects x unless finite and real, builds the table at |x| and calls
    ``kernels(table, ax)``.  That returns a list of (values at |x|, odd)
    pairs; an odd kernel changes sign at negative x.  Returns the list of
    kernel values, floats for a scalar x and arrays of x's shape otherwise.
    """
    import numpy as np

    arr = np.asarray(x)
    if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):    # a bool, complex, str or None is no real
        raise InvalidInputError("argument must be finite and real")
    flat = arr.ravel().astype(float, copy=False)
    ax = np.abs(flat)
    out = []
    for vals, odd in kernels(_jl_table(lmax, ax), ax):
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
    (vals,) = _on_table(x, l, lambda table, ax: [(table[l].copy(), l % 2 == 1)])
    return vals


def bessel_j_prime(l: int, x):
    """Derivative j_l'(x), via j_l' = [l j_{l-1} - (l+1) j_{l+1}] / (2l+1) (and j_0' = -j_1).

    The form divides by no x, so it holds at x = 0 and at subnormal x, where j_l underflows.
    """
    l = _int("order l", l, 0)

    def kernels(table, ax):
        # parity: j_l' is even for odd l, odd for even l
        if l == 0:
            return [(-table[1], True)]
        return [((l * table[l - 1] - (l + 1) * table[l + 1]) / (2 * l + 1), l % 2 == 0)]

    (vals,) = _on_table(x, l + 1, kernels)
    return vals


def _u_from_table(l: int, table: np.ndarray, ax: np.ndarray) -> np.ndarray:
    """u_l at |x| from a j-table that reaches order l+1; at x = 0, u_1 = 2/3 and u_l = 0 for l >= 2."""
    import numpy as np

    if l == 0:
        if not ax.all():
            raise SingularityError("u_0(x) = cos(x)/x is singular at x = 0")
        if (ax <= 1.0 / np.finfo(float).max).any():    # exactly where cos(x) / x = 1 / |x| rounds to inf
            raise UnderflowError(f"the argument |x| = {ax.min()} of u_0 = cos(x) / x underflows: u_0 overflows")
        return np.cos(ax) / ax
    return _u_from_neighbors(l, table[l - 1], table[l + 1])


def bessel_u(l: int, x):
    """Radial curl kernel u_l(x) = x^{-1} d/dx [x j_l(x)].

    Equals [(l+1) j_{l-1}(x) - l j_{l+1}(x)] / (2l+1).  Finite at x = 0 for
    l >= 1 (u_1(0) = 2/3, u_l(0) = 0 for l >= 2); u_0(x) = cos(x)/x is
    singular at the origin (SingularityError), and overflows where
    0 < |x| <= 1 / sys.float_info.max (UnderflowError).
    """
    l = _int("order l", l, 0)
    # parity: u_l(-x) = (-1)^{l+1} u_l(x)
    (vals,) = _on_table(x, l + 1, lambda table, ax: [(_u_from_table(l, table, ax), l % 2 == 0)])
    return vals


def bessel_j_and_u(l: int, x):
    """Evaluate (j_l(x), u_l(x)) sharing one recurrence table.

    The mode integrands need both kernels at the same points; this avoids
    building the order table twice.  Requires l >= 1.
    """
    l = _int("order l", l, 1)

    def kernels(table, ax):
        return [(table[l].copy(), l % 2 == 1), (_u_from_table(l, table, ax), l % 2 == 0)]

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
    1e-12), whose near-diagonal series takes over where Lommel's difference
    cancels; the cell's input rules apply, and then K^2 != k^2.
    """
    l = _int("order l", l, 0)
    m = _closed_form(2, l, k, K, a, 1e-12)[2]
    if abs(K) == abs(k):
        raise InvalidInputError("lommel_second requires K^2 != k^2; use lommel_first")
    return m
