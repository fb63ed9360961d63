"""Numerical certification of the boundedness and minimality inequalities.

Certified statements, all at the level of a single mode (j, l):

* boundedness: N_j(k) N_j(K) >= M_j(k, K)^2 for every admissible tuning
  (a Cauchy-Schwarz inequality between the untuned and tuned radial
  kernels), with equality exactly at K = |k| (chi = 0);
* curl recast: the j=1 kernel integrals equal the angular-reduced curl
  inner products up to the exact factor (l(l+1))^2;
* minimality: the per-mode weight ratio(chi) = N_j(K)/M_j(k,K)^2 grows
  with chi^2 near chi = 0, so the admissible multiplier of smallest
  magnitude gives the strictly smallest tuned energy;
* expansion structure: ratio(chi) = f0 + f1 chi + f2 chi^2 + O(chi^3)
  with f1 = 0 for both mode families; for j=2 both f0 and f2 have closed
  forms, and for j=1 the first-order coefficient is assembled from four
  explicit radial integrals (c0, c1, d0, d1) whose combination
  (c1 d0 - 2 c0 d1)/d0^3 vanishes identically.

The closed-form f2 below was re-derived symbolically from the Lommel
closed forms of N and M (series expansion of the ratio in chi around 0)
and is validated against high-precision finite differences; see the test
suite for the frozen oracle values.

The closed forms are checked against adaptive quadrature, the independent
oracle.  Its mode integrals have one route, ``_quadrature_integrals``: the
integrals at a whole list of K (``expansion_fd`` needs its step ladder),
each distinct one integrated once, all in one lockstep batch
(``quadrature.integrate_radial_batch``); ``radial_integrals_quadrature`` is
its batch of one.  Each round evaluates its integrands once, on the flat
node array of all active integrals (``f(owner, r)``), from one Bessel table,
each product in a lone integral's order, so every value is identical to the
bit to a lone integration.  Each integral's first panels are as wide as pi
over its integrand's highest wavenumber (``_osc``: |p| + |q| for a product
of kernels at p r and q r), so most batches converge in their first round.
``series_integrals_j1`` reads j_(l-1), j_l and
j_(l+1) from one table of top l+1 per round, and ``expansion_j2`` from the
closed-form cell's memoized triple, so its f0 is the cell's 1 / N_2.

Importing this module loads numpy, ``specfun`` and ``quadrature``, which
the oracle routes need, and ``decimal``, which ``expansion_j2`` needs: a
caller that times its first call should not time those imports.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from typing import NamedTuple

import numpy as np

from . import scalar, specfun
from .errors import DegenerateModeError, IllConditionedExpansionError, InvalidInputError
from .model import (
    MarginReport,
    Mode,
    RadialIntegrals,
    _closed_form,
    _margin_cell,
    _tuned_K,
    _validate_mu_omega,
    _weight,
    radial_integrals,  # noqa: F401  (bench/spans.py traces this name)
)
from .quadrature import integrate_radial_batch
from .quadrature import integrate_radial  # noqa: F401  (bench/spans.py traces this name)

__all__ = [
    "ExpansionCoeffs",
    "SeriesIntegralsJ1",
    "F1VanishingReport",
    "radial_integrals_quadrature",
    "boundedness_margin",
    "curl_identity_check",
    "expansion_j2",
    "expansion_fd",
    "series_integrals_j1",
    "f1_vanishing_check",
    "default_chi_grid",
]

BOUNDEDNESS = "boundedness"


class ExpansionCoeffs(NamedTuple):
    """Coefficients of ratio(chi) = f0 + f1 chi + f2 chi^2 + O(chi^3)."""

    j: int
    f0: float
    f1: float
    f2: float
    method: str  # "closed-form" | "finite-difference"


class SeriesIntegralsJ1(NamedTuple):
    """Zeroth/first-order radial integrals of the j=1 ratio's series (numerator c, denominator d)."""

    c0: float
    c1: float
    d0: float
    d1: float


class F1VanishingReport(NamedTuple):
    """Result of the first-order-coefficient vanishing check for j=1."""

    passed: bool
    residual: float
    f0: float
    f1: float


def _round_kernels(j: int, l: int, ks, Ks, owner, r):
    """The kernels at k r and K r of a refinement round's flat nodes r, from one Bessel table.

    ``ks[i]`` and ``Ks[i]`` are the wavenumbers of integral i, and ``owner[n]``
    the integral of node n (see ``quadrature.integrate_radial_batch``).
    Returns the kernels at k r and at K r, each ``(j_l,)`` for j=2 or
    ``(j_l, u_l)`` for j=1.  The table holds k r of every node, then K r of the
    nodes whose K != k (a self pair puts its points in once); a point's value
    does not depend on the other points of its table.
    """
    k, K = ks[owner], Ks[owner]
    cross = K != k
    x = np.concatenate([k * r, K[cross] * r[cross]])
    columns = (specfun.bessel_j(l, x),) if j == 2 else specfun.bessel_j_and_u(l, x)
    at_K = np.arange(r.size)
    at_K[cross] = np.arange(r.size, x.size)
    return [c[:r.size] for c in columns], [c[at_K] for c in columns]


def _osc(p: float, q: float) -> float:
    """|p| + |q|, the highest wavenumber of a product of kernels at p r and q r: its integral's ``osc_scale``."""
    return abs(p) + abs(q)


def _mode_integrand(mode: Mode, pairs):
    """Lockstep integrand of the mode integrals at the wavenumber pairs (k, K).

    Each call evaluates the active integrals of a refinement round at once,
    on the flat node array (see ``quadrature.integrate_radial_batch``): r^2
    j_l(kr) j_l(Kr) for j=2, j_l(kr) j_l(Kr) + k K r^2 u_l(kr) u_l(Kr) /
    (l(l+1)) for j=1, each product in the order of a lone pair's.
    """
    ll1 = mode.l * (mode.l + 1)
    ks, Ks = (np.array(side) for side in zip(*pairs))
    kKs = ks * Ks

    def f(owner, r):
        (jk, *uk), (jK, *uK) = _round_kernels(mode.j, mode.l, ks, Ks, owner, r)
        if mode.j == 2:
            return r * r * jk * jK
        return jk * jK + kKs[owner] * r * r * uk[0] * uK[0] / ll1

    return f


def _quadrature_integrals(mode: Mode, k: float, Ks, a: float, rel_tol: float):
    """RadialIntegrals(N_j(|k|), N_j(|K|), M_j(k, K)) for each K of ``Ks``: the oracle route.

    Every distinct integral is integrated once, and all of them as one
    lockstep batch.  The self integrals are even in the wavenumber: for j=1
    they are the quadrature pairs (|alpha|, |alpha|), and the cross integral
    at K == k is the self integral N_1(|k|), whose integrand is the same to
    the bit.  For j=2 the self integrals are the closed-form cell's Lommel
    values (``model._closed_form``), and only the cross pairs are integrated
    (M_2(k, k) stays a quadrature value), each round on the flat node array
    of all of them (``_mode_integrand``).
    """
    for K in Ks:
        scalar._validate(k, K, a, rel_tol)
    alphas = list(dict.fromkeys([abs(k)] + [abs(K) for K in Ks]))
    crosses = [(abs(k), abs(k)) if mode.j == 1 and K == k else (k, K) for K in Ks]
    self_pairs = [(alpha, alpha) for alpha in alphas] if mode.j == 1 else []
    pairs = list(dict.fromkeys(self_pairs + crosses))
    results = integrate_radial_batch(_mode_integrand(mode, pairs), a, rel_tol,
                                     osc_scales=[_osc(p, q) for p, q in pairs])
    values = {pair: res.value for pair, res in zip(pairs, results)}
    n_self = {alpha: values[alpha, alpha] if mode.j == 1 else _closed_form(2, mode.l, alpha, alpha, a, rel_tol)[0]
              for alpha in alphas}
    return [RadialIntegrals(n_self[abs(k)], n_self[abs(K)], values[cross]) for K, cross in zip(Ks, crosses)]


def radial_integrals_quadrature(
    mode: Mode, k: float, K: float, a: float, rel_tol: float = 1e-12
) -> RadialIntegrals:
    """The quadrature route to ``radial_integrals``: the independent oracle.

    The cross integral, and the j=1 self integrals, are integrated by
    adaptive Gauss--Kronrod quadrature to ``rel_tol``, as one lockstep
    batch; the j=2 self integrals are Lommel's closed form.
    """
    (ri,) = _quadrature_integrals(mode, k, [K], a, rel_tol)
    return ri


def boundedness_margin(
    mode: Mode, k: float, chi: float, mu_omega: float, a: float, rel_tol: float = 1e-12
) -> MarginReport:
    """Slack of N_j(k) N_j(K) - M_j(k, K)^2 >= 0 at the tuning chi.

    The reported scale is N_j(k) N_j(K); the inequality certifies that the
    untuned minimum energy lower-bounds every tuned minimum.  Equality is
    expected (within rounding) exactly at chi = 0.  The report is the one record a call builds.
    """
    _, _, _, _, margin, scale = _margin_cell(mode, k, chi, mu_omega, a, rel_tol)
    return MarginReport(mode, chi, margin, BOUNDEDNESS, scale)


def curl_identity_check(l: int, k: float, K: float, a: float, rel_tol: float = 1e-12) -> float:
    """Relative discrepancy of the curl recast of the j=1 kernel integrals.

    Integrates independently

        A = int_0^a [ (l(l+1))^2 j_l(kr) j_l(Kr)
                      + l(l+1) k K r^2 u_l(kr) u_l(Kr) ] dr          (curl side)
        B = int_0^a [ j_l(kr) j_l(Kr)
                      + k K r^2 u_l(kr) u_l(Kr) / (l(l+1)) ] dr      (kernel side)

    and returns |A - (l(l+1))^2 B| / max(|A|, |(l(l+1))^2 B|).
    """
    l = scalar._int("order l", l, 1)
    scalar._validate(k, K, a, rel_tol)
    ll1 = l * (l + 1)

    # A (integral 0) and B (integral 1) as one expression on one table per round,
    # c j_k j_K + q r^2 u_k u_K / d: the product by c = 1 and the quotient by d = 1 are exact
    ks, Ks = np.full(2, k), np.full(2, K)
    c, q, d = np.array([ll1 * ll1, 1.0]), np.array([ll1 * k * K, k * K]), np.array([1.0, ll1])

    def sides(owner, r):
        (jk, uk), (jK, uK) = _round_kernels(1, l, ks, Ks, owner, r)
        return c[owner] * jk * jK + q[owner] * r * r * uk * uK / d[owner]

    A, B = (res.value for res in integrate_radial_batch(sides, a, rel_tol, osc_scales=[_osc(k, K)] * 2))
    denom = max(abs(A), abs(ll1 * ll1 * B), 1e-300)
    return abs(A - ll1 * ll1 * B) / denom


# working digits of expansion_j2's f2, one try each until its quartic keeps
# 20 of them through the cancellation; the last try is taken as it comes
_F2_DIGITS = (40, 80, 160, 320)
# orders above l that the f2 recurrence may start at.  Where k a > l it
# needs about k a - l of them; past this many the quartic hardly cancels
# (its terms sum to under 16 times its value for l <= 300 at k a >= l + 300)
_F2_MAX_ORDERS = 300


def _scaled_triple(l: int, x: float, digits: int):
    """(j_(l-1), j_l, j_(l+1)) at x > 0 up to one common factor, to ``digits`` digits.

    A downward recurrence in Decimal at the context's precision.  It starts
    two orders above the first order where a dominant solution, run upward
    in floats from (0, 1) at orders (l, l+1), passes 10^(digits/2 + 1):
    j_n / y_n there has fallen below the top's by about that growth squared.
    Returns None where that order lies more than _F2_MAX_ORDERS above l.
    """
    g_prev, g, start = 0.0, 1.0, l + 1
    while abs(g) < 10.0 ** (digits / 2 + 1):
        if start > l + _F2_MAX_ORDERS:
            return None
        g_prev, g = g, (2 * start + 1) / x * g - g_prev
        start += 1
    xd = Decimal(x)
    f_up, f = Decimal(0), Decimal(1)
    for order in range(start + 2, l, -1):
        f_up, f = f, (2 * order + 1) * f / xd - f_up
    return (2 * l + 1) * f / xd - f_up, f, f_up


def expansion_j2(l: int, k: float, a: float, mu_omega: float) -> ExpansionCoeffs:
    """Closed-form expansion coefficients of the j=2 ratio around chi = 0.

    f0 = 2 / (a^3 [j_l(ka)^2 - j_{l-1}(ka) j_{l+1}(ka)]) = 1 / N_2(|k|),
    read from the closed-form cell (``model._closed_form``), so it is the
    cell's 1 / N_2(|k|) to the bit; against mpmath it is within 4 (l + 3) eps
    for l <= 30 and 0.01 <= |k| a <= 40 (where k a < l, the bracket cancels
    by about 2 / (2l + 3)).  f1 vanishes identically; f2 is the chi^2
    curvature, assembled from j_l(ka) and j_l'(ka) (even in k, strictly
    positive on the certified grids).  See the module docstring for the
    provenance of the f2 form.
    Raises InvalidInputError where the cell's input rules (``scalar._validate``,
    k a finite among them) or mu_omega's fail, and IllConditionedExpansionError
    where N_2(|k|) is not positive (a^3 underflows at tiny a), or where the cube
    in f2's denominator underflows to 0 (orders l >> k a).

    f2's quartic numerator cancels: at l = 6, k a = 0.5 a relative change of
    1e-16 in the Bessel values moves its doubles by about 3e-8.  Quartic and
    bracket are homogeneous in (j_(l-1), j_l, j_(l+1)), so f2 takes the
    triple up to a common factor: from ``_scaled_triple`` in 40 or more
    decimal digits, rescaled by the double of largest magnitude.  Only that
    one double's rounding reaches f2.  Where k a exceeds l by a few hundred,
    the recurrence would be long and the quartic barely cancels, so f2 takes
    the doubles themselves, in the same Decimal arithmetic.
    """
    l = scalar._int("order l", l, 1)
    n = _closed_form(2, l, k, k, a, 1e-12)[0]    # N_2(|k|), after the cell's input rules
    _validate_mu_omega(mu_omega)
    x = k * a
    if not n > 0.0:
        raise IllConditionedExpansionError(f"expansion self integral N_2(|k|) = {n} is not positive at l = {l}, ka = {x}")
    f0 = 1.0 / n
    ax = abs(x)    # the bracket and the quartic are even in x
    doubles = scalar._jl_triple(l, ax)
    jm1, j, jp1 = doubles
    bracket = j * j - jm1 * jp1  # the positive Lommel bracket
    if (x * x * bracket) ** 3 == 0.0:
        raise IllConditionedExpansionError(
            f"expansion denominator (ka)^6 (j_l^2 - j_(l-1) j_(l+1))^3 underflows to 0 at l = {l}, ka = {x}"
        )

    # The curvature numerator is a quartic in t = x j_l'/j_l whose monomial
    # form cancels catastrophically at small ka.  Re-expanded around t = l
    # (using the exact identity x j_l' - l j_l = -x j_{l+1}) it becomes a
    # quartic in v = -x j_{l+1} with coefficients C_m in (l, x^2) whose
    # leading cancellations are already carried out symbolically.
    big = max(range(3), key=lambda i: abs(doubles[i]))
    for digits in _F2_DIGITS:
        with localcontext() as ctx:
            ctx.prec = digits
            triple = _scaled_triple(l, ax, digits) or [Decimal(v) for v in doubles]
            fm, fl, fp = triple
            X = Decimal(ax) ** 2
            c0 = 4 * X**3 + X**2 * (-4 * l**2 + 12 * l + 7)
            c1 = X**2 * (16 * l + 24) + X * (-16 * l**3 + 8 * l**2 + 52 * l + 22)
            c2 = 8 * X**2 + X * (8 * l**2 + 56 * l + 42) - 16 * l**4 - 32 * l**3 - 8 * l**2 + 8 * l + 3
            c3 = X * (16 * l + 24) - 16 * l**3 - 24 * l**2 + 4 * l + 6
            c4 = 4 * X - 4 * l**2 - 4 * l + 3
            v = -Decimal(ax) * fp
            terms = (c0 * fl**4, c1 * fl**3 * v, c2 * fl**2 * v**2, c3 * fl * v**3, c4 * v**4)
            num = sum(terms)
            if sum(abs(t) for t in terms) <= abs(num).scaleb(digits - 20) or digits == _F2_DIGITS[-1]:
                scale = triple[big] / Decimal(doubles[big])    # the triple over the doubles; squared below
                den = 24 * Decimal(k) * Decimal(x) * (X * (fl * fl - fm * fp)) ** 3
                f2 = float(Decimal(mu_omega) ** 2 * num * scale * scale / den)
                break
    return ExpansionCoeffs(j=2, f0=f0, f1=0.0, f2=f2, method="closed-form")


# halving ladder of chi steps in units of k^2 / mu_omega; the wide end keeps
# quadrature noise out of the second difference when the curvature is huge
# (small |ka|), the narrow end keeps truncation out when it is gentle
_FD_STEPS = (4e-2, 2e-2, 1e-2, 5e-3, 2.5e-3)


def _scan_richardson(values) -> float:
    """Richardson-extrapolate every consecutive step triple; keep the most
    self-consistent one (smallest discrepancy between its two levels)."""
    best, best_gap = None, None
    for i in range(len(values) - 2):
        v1, v2, v4 = values[i], values[i + 1], values[i + 2]
        r1 = (4.0 * v2 - v1) / 3.0
        r2 = (4.0 * v4 - v2) / 3.0
        gap = abs(r2 - r1)
        if best_gap is None or gap < best_gap:
            best, best_gap = (16.0 * r2 - r1) / 15.0, gap
    return best


def expansion_fd(
    j: int, l: int, k: float, a: float, mu_omega: float, rel_tol: float = 1e-13
) -> ExpansionCoeffs:
    """Finite-difference expansion coefficients of ratio(chi) around chi = 0.

    Central differences on the halving step ladder h = t k^2 / mu_omega,
    t in {4e-2 .. 2.5e-3}, Richardson-extrapolated with plateau selection
    (the triple whose two extrapolation levels agree best wins).  The ratios
    are N_j(K) / M_j(k, K)^2 from the route of
    ``radial_integrals_quadrature``, run at the whole ladder, so this is
    the independent oracle for the closed forms, and the only f2 route for
    j=1.  The tuned wavenumbers of the whole ladder are computed first, and
    all its integrals run as one lockstep batch: 21 for j=1 (N_1(K) and
    M_1(k, K) per step, one integral at chi = 0 for k > 0), 11 cross
    integrals for j=2, whose N_2(K) come from one Bessel table.
    """
    mode = Mode(j, l)
    _tuned_K(k, mu_omega, 0.0)    # the rules of k and mu_omega, before they set the step scale
    scale = k * k / mu_omega
    steps = [t * scale for t in _FD_STEPS]
    chis = [0.0] + [chi for h in steps for chi in (h, -h)]
    Ks = [_tuned_K(k, mu_omega, chi) for chi in chis]
    integrals = _quadrature_integrals(mode, k, Ks, a, rel_tol)
    r0, *ladder = (_weight(mode, k, K, ri.n_self_K, ri.m_cross) for K, ri in zip(Ks, integrals))
    d1 = []
    d2 = []
    for h, rp, rm in zip(steps, ladder[0::2], ladder[1::2]):
        d1.append((rp - rm) / (2.0 * h))
        d2.append((rp - 2.0 * r0 + rm) / (h * h))
    f1 = _scan_richardson(d1)
    f2 = 0.5 * _scan_richardson(d2)
    return ExpansionCoeffs(j=j, f0=r0, f1=f1, f2=f2, method="finite-difference")


def series_integrals_j1(
    l: int, k: float, a: float, mu_omega: float, rel_tol: float = 1e-12
) -> SeriesIntegralsJ1:
    """The four explicit radial integrals behind the j=1 first-order coefficient.

    c0 and c1 are the zeroth/first chi-order integrals of the ratio's
    numerator series, d0 and d1 of its denominator series, written with
    their exact |k| and k^(2-l) |k|^l prefactors (which encode the parity
    bookkeeping for negative k).  c0 equals the j=1 self integral N_1(|k|);
    for k > 0, d0 = c0 and c1 = 2 d1 hold pointwise.

    The four run as one lockstep batch.  Each round builds one table of top
    l+1 at |k| r for all of them and reads its rows l-1, l and l+1; the
    kernels at k r are those values with the parity sign (-1)^n of order n
    for k < 0, an exact negation.
    """
    l = scalar._int("order l", l, 1)
    scalar._validate(k, k, a, rel_tol)
    _validate_mu_omega(mu_omega)
    ak = abs(k)
    k2 = k * k
    ll1 = l * (l + 1)
    two_l1_sq = (2 * l + 1) ** 2
    # integer exponents keep negative bases exact
    pref_d0 = k ** (2 - l) * ak**l
    pref_d1 = k ** (-l - 2) * ak**l

    def signed(order, values):
        """j_order(k r) from j_order(|k| r)."""
        return -values if k < 0.0 and order % 2 == 1 else values

    # each form takes r and j_{l-1}, j_l, j_{l+1} at |k| r
    def c0_f(r, jm, j, jp):
        r2 = r * r
        return (
            k2 * (l + 1) ** 2 * r2 * jm * jm
            - 2.0 * k2 * ll1 * r2 * jm * jp
            + l * (k2 * l * r2 * jp * jp + (l + 1) * two_l1_sq * j * j)
        ) / (ll1 * two_l1_sq)

    def c1_f(r, jm, j, jp):
        r2 = r * r
        bracket = (l + 1) * (-k2 * r2 + 2 * l * l + l) * j + r * ak * (k2 * r2 - 2 * l * l - 2 * l) * jp
        return -(mu_omega / (ll1 * k2)) * j * bracket

    def d0_f(r, jm, j, jp):
        jm_s, j_s, jp_s = signed(l - 1, jm), signed(l, j), signed(l + 1, jp)
        comb = (l + 1) * jm_s - l * jp_s
        return r * r * pref_d0 * comb * comb / (ll1 * two_l1_sq) + j_s * j

    def d1_f(r, jm, j, jp):
        j_s, jp_s = signed(l, j), signed(l + 1, jp)
        r2 = r * r
        bracket = (l + 1) * (-k2 * r2 + 2 * l * l + l) * j_s + k * r * (k2 * r2 - 2 * l * l - 2 * l) * jp_s
        return -(mu_omega * pref_d1 / (2.0 * ll1)) * j_s * bracket

    forms = (c0_f, c1_f, d0_f, d1_f)

    def integrands(owner, r):
        rows = lambda table, *_: [(table[n], False) for n in (l - 1, l, l + 1)]    # one table of top l+1
        jm, j, jp = specfun._on_table(ak * r, l + 1, rows)
        values = np.empty_like(r)
        for i, form in enumerate(forms):
            at = owner == i
            values[at] = form(r[at], jm[at], j[at], jp[at])
        return values

    results = integrate_radial_batch(integrands, a, rel_tol, osc_scales=[_osc(k, k)] * 4)
    c0, c1, d0, d1 = (res.value for res in results)
    return SeriesIntegralsJ1(c0=c0, c1=c1, d0=d0, d1=d1)


def f1_vanishing_check(
    l: int, k: float, a: float, mu_omega: float, tol: float = 1e-8, rel_tol: float = 1e-12
) -> F1VanishingReport:
    """Check that the j=1 first-order coefficient f1 = (c1 d0 - 2 c0 d1) / d0^3 vanishes.

    The residual is |f1| normalized by f0 = c0 / d0^2 (so it is comparable
    across modes); the check passes when residual <= tol.  Raises
    InvalidInputError unless tol is a finite number >= 0, and
    DegenerateModeError where d0^3 underflows to 0 (orders l >> k a).
    """
    if not scalar._finite("tol", tol) >= 0.0:
        raise InvalidInputError(f"tol must be >= 0, got {tol!r}")
    si = series_integrals_j1(l, k, a, mu_omega, rel_tol)
    d0_cubed = abs(si.d0) ** 3
    if d0_cubed == 0.0:
        raise DegenerateModeError(f"d0^3 underflows to 0 (d0 = {si.d0}) at l={l}, k={k}, a={a}")
    f0 = si.c0 / (si.d0 * si.d0)
    f1 = (si.c1 * si.d0 - 2.0 * si.c0 * si.d1) / d0_cubed
    residual = abs(f1) / f0
    return F1VanishingReport(passed=bool(residual <= tol), residual=residual, f0=f0, f1=f1)


def default_chi_grid(k: float, mu_omega: float, n: int = 21, span: float = 0.9) -> np.ndarray:
    """Symmetric admissible chi grid containing 0 exactly.

    Returns n values chi_i = i * (span / half) * k^2 / mu_omega for
    i in -half..half, half = (n-1)/2, so chi * mu_omega / k^2 stays within
    [-span, span] and K^2 = k^2 (1 - span..1 + span) remains positive for
    span < 1.  n takes ``scalar._int``'s rule (an integer >= 1 that an
    index holds) and must be odd; n = 1 gives [0.0].
    """
    if scalar._int("n", n, 1) % 2 == 0:
        raise InvalidInputError(f"n must be odd, got {n}")
    if not (0.0 < scalar._real("span", span) < 1.0):
        raise InvalidInputError(f"span must lie in (0, 1), got {span}")
    _tuned_K(k, mu_omega, 0.0)    # the rules of k and mu_omega
    half = (n - 1) // 2
    offsets = np.arange(-half, half + 1, dtype=float)
    if half == 0:
        return np.zeros(1)
    return offsets * (span / half) * (k * k / mu_omega)
