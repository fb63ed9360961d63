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
its batch of one.  Each refinement round evaluates every active integral
from one Bessel table; a self integral puts its points into it once.  Every
value is identical to the bit to a lone integration of the same integrand.

Importing this module loads numpy, ``specfun`` and ``quadrature``: the
oracle routes need them, and a caller that times its first call should not
time those imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import scalar, specfun
from .errors import DegenerateModeError, IllConditionedExpansionError, InvalidInputError
from .model import (
    MarginReport,
    Mode,
    RadialIntegrals,
    _boundedness_slack,
    _is_int,
    _weight,
    radial_integrals,
    tuned_wavenumber,
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


@dataclass(frozen=True)
class ExpansionCoeffs:
    """Coefficients of ratio(chi) = f0 + f1 chi + f2 chi^2 + O(chi^3)."""

    j: int
    f0: float
    f1: float
    f2: float
    method: str  # "closed-form" | "finite-difference"


@dataclass(frozen=True)
class SeriesIntegralsJ1:
    """Zeroth/first-order radial integrals of the j=1 ratio's series (numerator c, denominator d)."""

    c0: float
    c1: float
    d0: float
    d1: float


@dataclass(frozen=True)
class F1VanishingReport:
    """Result of the first-order-coefficient vanishing check for j=1."""

    passed: bool
    residual: float
    f0: float
    f1: float


def _kernel_values(j: int, l: int, pairs, points):
    """Kernel values at k r and K r for every pair (k, K), from one Bessel table.

    ``points[n]`` are the radii of ``pairs[n]``.  Returns one
    ``(at_k, at_K)`` per pair, each ``(j_l,)`` for j=2 or ``(j_l, u_l)`` for
    j=1.  A self pair (k == K) puts its points into the table once.  A
    point's value does not depend on the other points of its table.
    """
    args = []
    for (k, K), r in zip(pairs, points):
        args.append(k * r)
        if K != k:
            args.append(K * r)
    x = np.concatenate(args)
    columns = (specfun.bessel_j(l, x),) if j == 2 else specfun.bessel_j_and_u(l, x)
    cuts = np.cumsum([v.size for v in args[:-1]])
    pieces = zip(*(np.split(c, cuts) for c in columns))
    out = []
    for k, K in pairs:
        at_k = next(pieces)
        out.append((at_k, at_k if K == k else next(pieces)))
    return out


def _j1_integrand(ll1: int, k: float, K: float, r, jk, uk, jK, uK):
    """The j=1 kernel product j_l(kr) j_l(Kr) + k K r^2 u_l(kr) u_l(Kr) / (l(l+1))."""
    return jk * jK + k * K * r * r * uk * uK / ll1


def _mode_integrand(mode: Mode, pairs):
    """Lockstep integrand of the mode integrals at the wavenumber pairs (k, K).

    Each call evaluates the active integrals of a refinement round from one
    Bessel table (see ``quadrature.integrate_radial_batch``).
    """
    ll1 = mode.l * (mode.l + 1)

    def f(active, points):
        chosen = [pairs[i] for i in active]
        out = []
        for (k, K), r, (at_k, at_K) in zip(chosen, points, _kernel_values(mode.j, mode.l, chosen, points)):
            if mode.j == 2:
                out.append(r * r * at_k[0] * at_K[0])
            else:
                out.append(_j1_integrand(ll1, k, K, r, *at_k, *at_K))
        return out

    return f


def _quadrature_integrals(mode: Mode, k: float, Ks, a: float, rel_tol: float):
    """RadialIntegrals(N_j(|k|), N_j(|K|), M_j(k, K)) for each K of ``Ks``: the oracle route.

    Every distinct integral is integrated once, and all of them as one
    lockstep batch.  The self integrals are even in the wavenumber: for j=1
    they are the quadrature pairs (|alpha|, |alpha|), and the cross integral
    at K == k is the self integral N_1(|k|), whose integrand is the same to
    the bit.  For j=2 the self integrals come in closed form from one Bessel
    table for all wavenumbers, and only the cross pairs are integrated, so
    M_2(k, k) stays a quadrature value.
    """
    for K in Ks:
        scalar._validate(k, K, a, rel_tol)
    alphas = list(dict.fromkeys([abs(k)] + [abs(K) for K in Ks]))
    crosses = [(abs(k), abs(k)) if mode.j == 1 and K == k else (k, K) for K in Ks]
    if mode.j == 2:
        table = specfun._jl_table(mode.l + 1, np.array([alpha * a for alpha in alphas]))
        self_values = [scalar._lommel_first_from(a, *column) for column in zip(*table[mode.l - 1:].tolist())]
        pairs = list(dict.fromkeys(crosses))
    else:
        pairs = list(dict.fromkeys([(alpha, alpha) for alpha in alphas] + crosses))
    results = integrate_radial_batch(_mode_integrand(mode, pairs), a, rel_tol,
                                     osc_scales=[max(abs(p), abs(q)) for p, q in pairs])
    values = {pair: res.value for pair, res in zip(pairs, results)}
    n_self = dict(zip(alphas, self_values)) if mode.j == 2 else {alpha: values[alpha, alpha] for alpha in alphas}
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
    expected (within quadrature error) exactly at chi = 0.
    """
    t = tuned_wavenumber(k, mu_omega, chi)
    margin, scale = _boundedness_slack(radial_integrals(mode, k, t.K, a, rel_tol))
    return MarginReport(mode=mode, chi=chi, margin=margin, kind=BOUNDEDNESS, scale=scale)


def curl_identity_check(l: int, k: float, K: float, a: float, rel_tol: float = 1e-12) -> float:
    """Relative discrepancy of the curl recast of the j=1 kernel integrals.

    Integrates independently

        A = int_0^a [ (l(l+1))^2 j_l(kr) j_l(Kr)
                      + l(l+1) k K r^2 u_l(kr) u_l(Kr) ] dr          (curl side)
        B = int_0^a [ j_l(kr) j_l(Kr)
                      + k K r^2 u_l(kr) u_l(Kr) / (l(l+1)) ] dr      (kernel side)

    and returns |A - (l(l+1))^2 B| / max(|A|, |(l(l+1))^2 B|).
    """
    if l < 1:
        raise InvalidInputError("curl identity needs l >= 1")
    scalar._validate(k, K, a, rel_tol)
    ll1 = l * (l + 1)
    osc = max(abs(k), abs(K))

    def sides(active, points):
        # A and B share one table per round
        kernels = _kernel_values(1, l, [(k, K)] * len(points), points)
        out = []
        for i, r, ((jk, uk), (jK, uK)) in zip(active, points, kernels):
            if i == 0:
                out.append(ll1 * ll1 * jk * jK + ll1 * k * K * r * r * uk * uK)
            else:
                out.append(_j1_integrand(ll1, k, K, r, jk, uk, jK, uK))
        return out

    A, B = (res.value for res in integrate_radial_batch(sides, a, rel_tol, osc_scales=[osc, osc]))
    denom = max(abs(A), abs(ll1 * ll1 * B), 1e-300)
    return abs(A - ll1 * ll1 * B) / denom


def _validate_mu_omega(mu_omega: float) -> None:
    """Reject a mu_omega that leaves K independent of chi (0) or is not finite."""
    if mu_omega == 0.0 or not math.isfinite(mu_omega):
        raise InvalidInputError(f"mu_omega must be finite and nonzero, got {mu_omega}")


def expansion_j2(l: int, k: float, a: float, mu_omega: float) -> ExpansionCoeffs:
    """Closed-form expansion coefficients of the j=2 ratio around chi = 0.

    f0 = 2 / (a^3 [j_l(ka)^2 - j_{l-1}(ka) j_{l+1}(ka)]) = 1 / N_2(|k|);
    f1 vanishes identically; f2 is the chi^2 curvature, assembled from
    j_l(ka) and j_l'(ka) (even in k, strictly positive on the certified
    grids).  See the module docstring for the provenance of the f2 form.
    Raises IllConditionedExpansionError where the bracket is not positive,
    or where the cube in f2's denominator underflows to 0 (orders l >> k a).
    """
    l = specfun._validate_order(l, 1)
    if k == 0.0:
        raise InvalidInputError("k must be nonzero")
    _validate_mu_omega(mu_omega)
    x = k * a
    if not (a > 0.0 and math.isfinite(x)):
        raise InvalidInputError(f"expansion needs a > 0 and finite k a, got k={k}, a={a}")
    jm1, j, jp1 = (scalar._jl_value(order, x) for order in (l - 1, l, l + 1))
    bracket = j * j - jm1 * jp1  # the positive Lommel bracket
    if bracket <= 0.0:
        raise IllConditionedExpansionError(
            f"expansion bracket j_l^2 - j_(l-1) j_(l+1) = {bracket} <= 0 at ka = {x}"
        )
    f0 = 2.0 / (a**3 * bracket)

    # The curvature numerator is a quartic in t = x j_l'/j_l whose monomial
    # form cancels catastrophically at small ka.  Re-expanded around t = l
    # (using the exact identity x j_l' - l j_l = -x j_{l+1}) it becomes a
    # quartic in v = -x j_{l+1} with coefficients C_m in (l, x^2) whose
    # leading cancellations are already carried out symbolically.
    X = x * x
    ll = float(l)
    c0 = 4.0 * X**3 + X**2 * (-4.0 * ll**2 + 12.0 * ll + 7.0)
    c1 = X**2 * (16.0 * ll + 24.0) + X * (-16.0 * ll**3 + 8.0 * ll**2 + 52.0 * ll + 22.0)
    c2 = (
        8.0 * X**2
        + X * (8.0 * ll**2 + 56.0 * ll + 42.0)
        - 16.0 * ll**4 - 32.0 * ll**3 - 8.0 * ll**2 + 8.0 * ll + 3.0
    )
    c3 = X * (16.0 * ll + 24.0) - 16.0 * ll**3 - 24.0 * ll**2 + 4.0 * ll + 6.0
    c4 = 4.0 * X - 4.0 * ll**2 - 4.0 * ll + 3.0
    v = -x * jp1
    num = c0 * j**4 + c1 * j**3 * v + c2 * j**2 * v**2 + c3 * j * v**3 + c4 * v**4
    b3_cubed = (X * bracket) ** 3
    if b3_cubed == 0.0:
        raise IllConditionedExpansionError(
            f"expansion denominator (ka)^6 (j_l^2 - j_(l-1) j_(l+1))^3 underflows to 0 at l = {l}, ka = {x}"
        )
    f2 = mu_omega**2 * num / (24.0 * k * x * b3_cubed)
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
    if j not in (1, 2):
        raise InvalidInputError(f"j must be 1 or 2, got {j}")
    _validate_mu_omega(mu_omega)

    scale = k * k / mu_omega
    steps = [t * scale for t in _FD_STEPS]
    chis = [0.0] + [chi for h in steps for chi in (h, -h)]
    Ks = [tuned_wavenumber(k, mu_omega, chi).K for chi in chis]
    mode = Mode(j, l)
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

    The four run as one lockstep batch.  Each round builds the tables of
    orders l-1, l and l+1 at |k| r once for all of them; the kernels at k r
    are those values with the parity sign (-1)^n of order n for k < 0, an
    exact negation.
    """
    l = specfun._validate_order(l, 1)
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

    def integrands(active, points):
        x = ak * np.concatenate(points)
        cuts = np.cumsum([r.size for r in points[:-1]])
        tables = zip(*(np.split(specfun.bessel_j(order, x), cuts) for order in (l - 1, l, l + 1)))
        return [forms[i](r, *values) for i, r, values in zip(active, points, tables)]

    results = integrate_radial_batch(integrands, a, rel_tol, osc_scales=[ak] * 4)
    c0, c1, d0, d1 = (res.value for res in results)
    return SeriesIntegralsJ1(c0=c0, c1=c1, d0=d0, d1=d1)


def f1_vanishing_check(
    l: int, k: float, a: float, mu_omega: float, tol: float = 1e-8, rel_tol: float = 1e-12
) -> F1VanishingReport:
    """Check that the j=1 first-order coefficient f1 = (c1 d0 - 2 c0 d1) / d0^3 vanishes.

    The residual is |f1| normalized by f0 = c0 / d0^2 (so it is comparable
    across modes); the check passes when residual <= tol.  Raises
    DegenerateModeError where d0^3 underflows to 0 (orders l >> k a).
    """
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

    Returns n (odd) values chi_i = i * (span / half) * k^2 / mu_omega for
    i in -half..half, half = (n-1)/2, so chi * mu_omega / k^2 stays within
    [-span, span] and K^2 = k^2 (1 - span..1 + span) remains positive for
    span < 1.
    """
    if not (_is_int(n) and n >= 1 and n % 2 == 1):
        raise InvalidInputError(f"n must be a positive odd integer, got {n!r}")
    if not (0.0 < span < 1.0):
        raise InvalidInputError(f"span must lie in (0, 1), got {span}")
    if k == 0.0 or not math.isfinite(k):
        raise InvalidInputError(f"k must be finite and nonzero, got {k}")
    _validate_mu_omega(mu_omega)
    half = (n - 1) // 2
    offsets = np.arange(-half, half + 1, dtype=float)
    if half == 0:
        return np.zeros(1)
    return offsets * (span / half) * (k * k / mu_omega)
