"""Physical data model: substrates, modes, tuned wavenumbers, mode integrals.

Scaled units throughout: the vacuum permittivity and permeability are 1, so
the vacuum propagation constant is k0 = omega and the substrate constant is
k = sign(epsilon_r) * omega * sqrt(epsilon_r * mu_r).  All theorem-level
statements only depend on the dimensionless products k*a and K*a, so this
loses no generality.

Radial integrals are computed in closed form from one Bessel table per cell
(``radial_integrals``).  The adaptive-quadrature route
(``radial_integrals_quadrature``) is kept as the independent oracle; the
closed form falls back to it for the cross integral only where its own
rounding error estimate exceeds the requested tolerance, near the diagonal.
The oracle has one route, ``_quadrature_integrals``: the integrals at a
whole list of K (``theorems.expansion_fd`` needs its step ladder), each
distinct one integrated once, all in one lockstep batch
(``quadrature.integrate_radial_batch``); ``radial_integrals_quadrature`` is
its batch of one.  Each refinement round evaluates every active integral
from one Bessel table; a self integral puts its points into it once.  Every
value is identical to the bit to a lone integration of the same integrand.

Per-mode energy weights R are normalized with the per-mode constant set
to 1 (energies are "up to a fixed positive per-mode normalization"); every
inequality certified here is invariant under such rescaling, because each
compares R values of the same mode at different tuning parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import specfun
from .errors import (
    DegenerateModeError,
    EvanescentRegimeError,
    IncompleteSourceSpecError,
    InvalidInputError,
    UnsupportedMediumError,
)
from .quadrature import integrate_radial_batch, validate_tol
from .quadrature import integrate_radial  # noqa: F401  (bench/spans.py traces this name)

__all__ = [
    "Substrate",
    "Mode",
    "TuningState",
    "RadialIntegrals",
    "SourceSpec",
    "classify_substrate",
    "tuned_wavenumber",
    "radial_integrals",
    "radial_integrals_quadrature",
    "mode_ratio",
    "mode_coefficient",
    "source_energy",
]

ORDINARY = "ordinary"
DPS = "DPS-metamaterial"
DNG = "DNG-metamaterial"


@dataclass(frozen=True)
class Substrate:
    """Spherical source region: relative constitutive parameters, frequency, radius."""

    epsilon_r: float
    mu_r: float
    omega: float
    a: float

    def __post_init__(self):
        for name in ("epsilon_r", "mu_r", "omega", "a"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise InvalidInputError(f"Substrate.{name} must be a finite number, got {v!r}")
        if self.omega <= 0.0:
            raise InvalidInputError(f"Substrate.omega must be > 0, got {self.omega}")
        if self.a <= 0.0:
            raise InvalidInputError(f"Substrate.a must be > 0, got {self.a}")
        product = self.epsilon_r * self.mu_r
        if product < 0.0:
            raise UnsupportedMediumError(
                "substrate requires epsilon_r * mu_r > 0 "
                f"(got epsilon_r={self.epsilon_r}, mu_r={self.mu_r}); "
                "single-negative media are outside the certified class"
            )
        if product == 0.0:
            raise UnsupportedMediumError(
                "nihility substrate (k = 0) is outside the certified class; "
                "epsilon_r * mu_r must be > 0"
            )

    @property
    def k0(self) -> float:
        """Vacuum propagation constant (equals omega in scaled units)."""
        return self.omega

    @property
    def k(self) -> float:
        """Substrate propagation constant, negative for double-negative media."""
        return math.copysign(1.0, self.epsilon_r) * self.omega * math.sqrt(self.epsilon_r * self.mu_r)

    @property
    def mu_omega(self) -> float:
        """The product mu * omega entering the tuned wavenumber."""
        return self.mu_r * self.omega


@dataclass(frozen=True, order=True)
class Mode:
    """Multipole channel (j, l, m); j=1 and j=2 are the two vector families."""

    j: int
    l: int
    m: int = 0

    def __post_init__(self):
        if self.j not in (1, 2):
            raise InvalidInputError(f"Mode.j must be 1 or 2, got {self.j}")
        if not (isinstance(self.l, int) and self.l >= 1):
            raise InvalidInputError(f"Mode.l must be an integer >= 1, got {self.l}")
        if not (isinstance(self.m, int) and abs(self.m) <= self.l):
            raise InvalidInputError(f"Mode.m must satisfy |m| <= l, got m={self.m}, l={self.l}")


@dataclass(frozen=True)
class TuningState:
    """A Lagrange-multiplier value with its tuned wavenumber K = sqrt(k^2 - chi mu omega)."""

    chi: float
    K: float
    mu_omega: float


@dataclass(frozen=True)
class RadialIntegrals:
    """Self integrals N_j(k), N_j(K) and the cross integral M_j(k, K) of one mode."""

    n_self_k: float
    n_self_K: float
    m_cross: float


@dataclass(frozen=True)
class SourceSpec:
    """Prescribed multipole amplitudes of the radiated field."""

    amplitudes: Mapping[Mode, complex] = field(default_factory=dict)

    def __post_init__(self):
        for mode, amp in self.amplitudes.items():
            if not isinstance(mode, Mode):
                raise InvalidInputError(f"amplitude keys must be Mode instances, got {mode!r}")
            c = complex(amp)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise InvalidInputError(f"amplitude for {mode} must be finite, got {amp!r}")


def classify_substrate(s: Substrate) -> str:
    """Classify by propagation constant: ordinary (k >= k0), DPS (0 < k < k0), DNG (k < 0).

    The boundary k = k0 is classified as ordinary by convention.
    """
    k = s.k
    if k >= s.k0:
        return ORDINARY
    if k > 0.0:
        return DPS
    return DNG


def tuned_wavenumber(k: float, mu_omega: float, chi: float) -> TuningState:
    """Tuned wavenumber K(chi) = +sqrt(k^2 - chi * mu * omega).

    Always the positive root; all certified quantities are invariant under
    K -> -K, so the branch choice is observable only through this contract.

    Raises
    ------
    EvanescentRegimeError
        If k^2 - chi * mu_omega <= 0 (no propagating tuned current).
    """
    if not all(math.isfinite(v) for v in (k, mu_omega, chi)):
        raise InvalidInputError("k, mu_omega and chi must be finite")
    if k == 0.0:
        raise InvalidInputError("k must be nonzero")
    K2 = k * k - chi * mu_omega
    if K2 <= 0.0:
        raise EvanescentRegimeError(
            f"chi={chi} gives K^2 = {K2} <= 0; tuned current would be evanescent"
        )
    return TuningState(chi=chi, K=math.sqrt(K2), mu_omega=mu_omega)


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


def _validate(k: float, K: float, a: float, rel_tol: float) -> None:
    if not all(math.isfinite(v) for v in (k, K, a)):
        raise InvalidInputError(f"k, K and a must be finite, got k={k}, K={K}, a={a}")
    if k == 0.0 or K == 0.0:
        raise InvalidInputError("wavenumbers must be nonzero")
    if a <= 0.0:
        raise InvalidInputError(f"radius a must be > 0, got {a}")
    validate_tol(rel_tol)


def _mode_quadrature(mode: Mode, pairs, a: float, rel_tol: float):
    """Mode integrals at each wavenumber pair (k, K) by quadrature, as one lockstep batch.

    A pair (alpha, alpha) is the self integral N_j(alpha).
    """
    f = _mode_integrand(mode, pairs)
    results = integrate_radial_batch(f, a, rel_tol, osc_scales=[max(abs(k), abs(K)) for k, K in pairs])
    return [res.value for res in results]


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
        _validate(k, K, a, rel_tol)
    alphas = list(dict.fromkeys([abs(k)] + [abs(K) for K in Ks]))
    crosses = [(abs(k), abs(k)) if mode.j == 1 and K == k else (k, K) for K in Ks]
    if mode.j == 2:
        table = specfun._jl_table(mode.l + 1, np.array([alpha * a for alpha in alphas]))
        self_values = [specfun._lommel_first_from(a, *column) for column in zip(*table[mode.l - 1:].tolist())]
        pairs = list(dict.fromkeys(crosses))
    else:
        pairs = list(dict.fromkeys([(alpha, alpha) for alpha in alphas] + crosses))
    values = dict(zip(pairs, _mode_quadrature(mode, pairs, a, rel_tol)))
    n_self = dict(zip(alphas, self_values)) if mode.j == 2 else {alpha: values[alpha, alpha] for alpha in alphas}
    return [RadialIntegrals(n_self[abs(k)], n_self[abs(K)], values[cross]) for K, cross in zip(Ks, crosses)]


def radial_integrals_quadrature(
    mode: Mode, k: float, K: float, a: float, rel_tol: float = 1e-12
) -> RadialIntegrals:
    """The quadrature route to ``radial_integrals``: the independent oracle.

    The cross integral, and the j=1 self integrals, are integrated by
    adaptive Gauss--Kronrod quadrature to ``rel_tol``, as one lockstep
    batch; the j=2 self integrals are Lommel's closed form.  The
    finite-difference expansion oracle and the tests use this route, and
    ``radial_integrals`` takes its cross integral near the diagonal.
    """
    (ri,) = _quadrature_integrals(mode, k, [K], a, rel_tol)
    return ri


def _j1_from_j2(l: int, a: float, K: float, m2: float, j_k: float, u_K: float) -> float:
    """Green-identity reduction l(l+1) M_1(k, K) = K^2 M_2(k, K) + a^2 K j_l(ka) u_l(Ka)."""
    return (K * K * m2 + a * a * K * j_k * u_K) / (l * (l + 1))


def _closed_form(j: int, l: int, k: float, K: float, a: float):
    """N_j(k), N_j(K), M_j(k, K) at 0 < k, K from one Bessel table of order l+1.

    Returns the integrals and the rounding error estimate of M relative to
    sqrt(N_j(k) N_j(K)).  At k == K, M equals N exactly.
    """
    (jm_k, jm_K), (j_k, j_K), (jp_k, jp_K) = specfun._jl_rows(l + 1, [k * a, K * a])[l - 1:]
    u_k = specfun._u_from_neighbors(l, jm_k, jp_k)
    u_K = specfun._u_from_neighbors(l, jm_K, jp_K)
    n_k = specfun._lommel_first_from(a, jm_k, j_k, jp_k)
    n_K = specfun._lommel_first_from(a, jm_K, j_K, jp_K)
    m, err = (0.0, 0.0) if k == K else specfun._lommel_second_from(a, k, K, j_k, jp_k, j_K, jp_K)
    if j == 1:
        if k != K:
            # M_2's error, plus the rounding of the two terms of the reduction
            terms = abs(K * K * m) + abs(a * a * K * j_k * u_K)
            err = (K * K * err + specfun._EPS * terms) / (l * (l + 1))
            m = _j1_from_j2(l, a, K, m, j_k, u_K)
        n_k = _j1_from_j2(l, a, k, n_k, j_k, u_k)
        n_K = _j1_from_j2(l, a, K, n_K, j_K, u_K)
    if k == K:
        m = n_k
    scale = math.sqrt(n_k) * math.sqrt(n_K)  # N can be as small as 1e-300 for l >> k a
    return RadialIntegrals(n_self_k=n_k, n_self_K=n_K, m_cross=m), err / scale if scale > 0.0 else math.inf


def radial_integrals(mode: Mode, k: float, K: float, a: float, rel_tol: float = 1e-12) -> RadialIntegrals:
    """Self and cross radial integrals of one mode at wavenumbers (k, K).

    j=2 kernels are r j_l(alpha r); j=1 kernels combine j_l and u_l from the
    curl of the mode field.  All three integrals come in closed form from one
    Bessel table of order l+1 at |k| a and |K| a: Lommel's integrals for
    j=2, and for j=1 the Green-identity reduction
    l(l+1) M_1(k, K) = K^2 M_2(k, K) + a^2 K j_l(ka) u_l(Ka), whose diagonal
    k = K gives N_1.  Negative wavenumbers enter only through the parity
    factor (-1)^l of M; at |K| = |k|, M = +-N exactly.

    Near the diagonal the closed form for M divides a cancelling difference
    t1 - t2 by K^2 - k^2.  Its rounding error is estimated as
    eps a (|t1| + |t2|) / |K^2 - k^2|, plus the rounding of the two terms of
    the j=1 reduction.  When that exceeds ``rel_tol`` sqrt(N_j(k) N_j(K)),
    M is integrated by the quadrature route of ``radial_integrals_quadrature``
    instead.  The self integrals have no such cancellation and stay in
    closed form.
    """
    _validate(k, K, a, rel_tol)
    ri, err = _closed_form(mode.j, mode.l, abs(k), abs(K), a)
    if err > rel_tol:
        (m,) = _mode_quadrature(mode, [(k, K)], a, rel_tol)
        return RadialIntegrals(ri.n_self_k, ri.n_self_K, m)
    if mode.l % 2 == 1 and (k < 0.0) != (K < 0.0):
        return RadialIntegrals(ri.n_self_k, ri.n_self_K, -ri.m_cross)
    return ri


def _weight(mode: Mode, k: float, K: float, n_self_K: float, m_cross: float) -> float:
    """N_j(K) / M_j(k, K)^2; M^2 that is 0 (M vanished or its square underflowed) has no finite weight."""
    m2 = m_cross * m_cross
    ratio = n_self_K / m2 if m2 != 0.0 else math.inf
    if not math.isfinite(ratio):
        raise DegenerateModeError(
            f"cross integral vanished for {mode} at k={k}, K={K}; "
            "the prescription constraint cannot be met at this tuning"
        )
    return ratio


def mode_ratio(mode: Mode, k: float, K: float, a: float, rel_tol: float = 1e-12) -> float:
    """The per-mode weight ratio N_j(K) / M_j(k, K)^2 at explicit wavenumbers.

    Raises
    ------
    DegenerateModeError
        If the cross integral vanishes, or its square underflows so that the
        ratio is not finite (no finite weight at this tuning).
    """
    ri = radial_integrals(mode, k, K, a, rel_tol)
    return _weight(mode, k, K, ri.n_self_K, ri.m_cross)


def mode_coefficient(mode: Mode, s: Substrate, t: TuningState, rel_tol: float = 1e-12) -> float:
    """Per-mode energy weight R = N_j(K) / M_j(k, K)^2 (m-independent).

    At chi = 0 this reduces to 1 / N_j(|k|).  The per-mode normalization
    constant is fixed to 1 (see module docstring).
    """
    return mode_ratio(mode, s.k, t.K, s.a, rel_tol)


def source_energy(spec: SourceSpec, coefficients: Mapping[Mode, float]) -> float:
    """Total source energy sum_modes R |a|^2 for prescribed amplitudes."""
    total = 0.0
    for mode, amp in spec.amplitudes.items():
        if mode not in coefficients:
            raise IncompleteSourceSpecError(f"no coefficient supplied for {mode}")
        total += coefficients[mode] * abs(complex(amp)) ** 2
    return total
