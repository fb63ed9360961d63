"""Physical data model: substrates, modes, tuned wavenumbers, mode integrals.

Scaled units throughout: the vacuum permittivity and permeability are 1, so
the vacuum propagation constant is k0 = omega and the substrate constant is
k = sign(epsilon_r) * omega * sqrt(epsilon_r * mu_r).  All theorem-level
statements only depend on the dimensionless products k*a and K*a, so this
loses no generality.

Radial integrals are computed in closed form (``_closed_form``) from the
Bessel triples at |k| a and |K| a in ``scalar._jl_triple``'s exact memo, so a
chi grid builds its untuned triple once; ``_margin_cell`` adds K and the
margin, as floats.  Each public function builds only the record it returns,
and a Substrate takes the cell's input rules.  None of it loads numpy.  Their
oracle, adaptive quadrature, is ``theorems.radial_integrals_quadrature``.

Per-mode energy weights R are normalized with the per-mode constant set
to 1 (energies are "up to a fixed positive per-mode normalization"); every
inequality certified here is invariant under such rescaling, because each
compares R values of the same mode at different tuning parameters.
"""

from __future__ import annotations

import math
import numbers
from typing import Mapping, NamedTuple

from . import scalar
from .errors import (
    DegenerateModeError,
    EvanescentRegimeError,
    IncompleteSourceSpecError,
    InvalidInputError,
    UnderflowError,
    UnsupportedMediumError,
)
from .scalar import _EPS, _jl_triple, _lommel_second_from, _lommel_second_series, _u_from_neighbors, _validate

__all__ = [
    "Substrate",
    "Mode",
    "TuningState",
    "RadialIntegrals",
    "SourceSpec",
    "MarginReport",
    "classify_substrate",
    "tuned_wavenumber",
    "radial_integrals",
    "mode_ratio",
    "minimality_margin",
    "mode_coefficient",
    "source_energy",
]

ORDINARY = "ordinary"
DPS = "DPS-metamaterial"
DNG = "DNG-metamaterial"
MINIMALITY = "minimality"


def __getattr__(name):
    # bench/spans.py traces model.integrate_radial; it loads the quadrature oracle
    if name == "integrate_radial":
        from .quadrature import integrate_radial

        return integrate_radial
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Substrate(NamedTuple("Substrate", [("epsilon_r", float), ("mu_r", float), ("omega", float), ("a", float)])):
    """Spherical source region: relative constitutive parameters, frequency, radius; k and a take the cell's rules (``_validate``)."""

    __slots__ = ()

    def __new__(cls, epsilon_r: float, mu_r: float, omega: float, a: float):
        for name, value in (("epsilon_r", epsilon_r), ("mu_r", mu_r), ("omega", omega), ("a", a)):
            scalar._finite(f"Substrate.{name}", value)
        if omega <= 0.0:
            raise InvalidInputError(f"Substrate.omega must be > 0, got {omega}")
        product = epsilon_r * mu_r
        if product < 0.0:
            raise UnsupportedMediumError(
                "substrate requires epsilon_r * mu_r > 0 "
                f"(got epsilon_r={epsilon_r}, mu_r={mu_r}); "
                "single-negative media are outside the certified class"
            )
        if product == 0.0:
            raise UnsupportedMediumError(
                "nihility substrate (k = 0) is outside the certified class; "
                "epsilon_r * mu_r must be > 0"
            )
        substrate = super().__new__(cls, epsilon_r, mu_r, omega, a)
        _validate(substrate.k, substrate.k, a)
        return substrate

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


class Mode(NamedTuple("Mode", [("j", int), ("l", int), ("m", int)])):
    """Multipole channel (j, l, m); j=1 and j=2 are the two vector families."""

    __slots__ = ()

    def __new__(cls, j: int, l: int, m: int = 0):
        if not (scalar._is_int(j) and j in (1, 2)):
            raise InvalidInputError(f"Mode.j must be the integer 1 or 2, got {scalar._shown(j)}")
        scalar._int("Mode.l", l, 1)
        if not (scalar._is_int(m) and abs(m) <= l):
            raise InvalidInputError(f"Mode.m must satisfy |m| <= l, got m={scalar._shown(m)}, l={l}")
        return super().__new__(cls, j, l, m)


class TuningState(NamedTuple):
    """A Lagrange-multiplier value with its tuned wavenumber K = sqrt(k^2 - chi mu omega)."""

    chi: float
    K: float
    mu_omega: float


class RadialIntegrals(NamedTuple):
    """Self integrals N_j(k), N_j(K) and the cross integral M_j(k, K) of one mode."""

    n_self_k: float
    n_self_K: float
    m_cross: float


class MarginReport(NamedTuple):
    """Signed slack of one certified inequality, with its positive normalizer."""

    mode: Mode
    chi: float
    margin: float
    kind: str
    scale: float


class SourceSpec(NamedTuple("SourceSpec", [("amplitudes", Mapping[Mode, complex])])):
    """Prescribed multipole amplitudes of the radiated field; none given is a new empty dict."""

    __slots__ = ()

    def __new__(cls, amplitudes: Mapping[Mode, complex] = None):
        amplitudes = {} if amplitudes is None else amplitudes
        for mode, amp in amplitudes.items():
            if not isinstance(mode, Mode):
                raise InvalidInputError(f"amplitude keys must be Mode instances, got {mode!r}")
            if not isinstance(amp, numbers.Number) or isinstance(amp, bool):
                raise InvalidInputError(f"amplitude for {mode} must be a number, got {amp!r}")
            c = complex(amp)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise InvalidInputError(f"amplitude for {mode} must be finite, got {amp!r}")
        return super().__new__(cls, amplitudes)


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


def _validate_mu_omega(mu_omega: float) -> None:
    """Reject a mu_omega that is not a finite real (``scalar._finite``) or is 0, which leaves K independent of chi."""
    if not (type(mu_omega) is float and math.isfinite(mu_omega)):    # the fast path's one test, then finiteness
        scalar._finite("mu_omega", mu_omega)
    if mu_omega == 0.0:
        raise InvalidInputError(f"mu_omega must be nonzero, got {mu_omega}")


def tuned_wavenumber(k: float, mu_omega: float, chi: float) -> TuningState:
    """Tuned wavenumber K(chi) = +sqrt(k^2 - chi * mu * omega).

    Always the positive root; all certified quantities are invariant under
    K -> -K, so the branch choice is observable only through this contract.

    Raises
    ------
    InvalidInputError
        If k, mu_omega or chi is not a finite real (a bool is not), k or
        mu_omega is 0, or k^2 - chi * mu_omega overflows.
    EvanescentRegimeError
        If k^2 - chi * mu_omega <= 0 (no propagating tuned current).
    UnderflowError
        If k^2 underflows to 0 where chi * mu_omega <= 0, so K^2 >= k^2 > 0.
    """
    return TuningState(chi=chi, K=_tuned_K(k, mu_omega, chi), mu_omega=mu_omega)


def _tuned_K(k: float, mu_omega: float, chi: float) -> float:
    """``tuned_wavenumber(k, mu_omega, chi).K`` as a float, with its checks in its order."""
    if not (type(k) is type(mu_omega) is type(chi) is float    # the fast path's one test; else each check in turn
            and math.isfinite(k) and math.isfinite(mu_omega) and math.isfinite(chi) and k != 0.0 and mu_omega != 0.0):
        for name, value in (("k", k), ("mu_omega", mu_omega), ("chi", chi)):
            scalar._finite(name, value)
        if k == 0.0:
            raise InvalidInputError("k must be nonzero")
        _validate_mu_omega(mu_omega)
    K2 = k * k - chi * mu_omega
    if not 0.0 < K2 < math.inf:
        if K2 <= 0.0:
            if chi * mu_omega <= 0.0:    # the true K^2 is at least k^2 > 0
                raise UnderflowError(f"k^2 underflows to 0 at k={k}, chi={chi}, mu_omega={mu_omega}")
            raise EvanescentRegimeError(
                f"chi={chi} gives K^2 = {K2} <= 0; tuned current would be evanescent"
            )
        raise InvalidInputError(f"k^2 - chi * mu_omega overflows at k={k}, chi={chi}, mu_omega={mu_omega}")
    return math.sqrt(K2)


def _j1_from_j2(l: int, a: float, K: float, m2: float, j_k: float, u_K: float) -> float:
    """Green-identity reduction l(l+1) M_1(k, K) = K^2 M_2(k, K) + a^2 K j_l(ka) u_l(Ka)."""
    return (K * K * m2 + a * a * K * j_k * u_K) / (l * (l + 1))


def _closed_form(j: int, l: int, k: float, K: float, a: float, rel_tol: float):
    """Floats (N_j(k), N_j(K), M_j(k, K), err) from the memoized triples at |k| a and |K| a, after ``_validate``.

    err is the rounding error estimate of Lommel's M relative to sqrt(N_j(k) N_j(K));
    above ``rel_tol`` and finite, M_2 is the near-diagonal series.  It is inf where N_k or
    N_K underflows to 0, which happens far from the diagonal too.  At |k| == |K|, M equals
    +-N exactly.  l = 0 serves j = 2 only.  Raises UnderflowError where K^2 - k^2 underflows.
    """
    _validate(k, K, a, rel_tol)
    flip = l % 2 == 1 and (k < 0.0) != (K < 0.0)    # the parity factor (-1)^l of M
    k, K = abs(k), abs(K)
    jm_k, j_k, jp_k = _jl_triple(l, k * a)
    jm_K, j_K, jp_K = _jl_triple(l, K * a)
    half_a3 = 0.5 * a**3    # Lommel's first integral N_2 = (a^3 / 2) [j_l^2 - j_(l+1) j_(l-1)]
    n_k = half_a3 * (j_k * j_k - jp_k * jm_k)
    n_K = half_a3 * (j_K * j_K - jp_K * jm_K)
    m, err = (0.0, 0.0) if k == K else _lommel_second_from(a, k, K, j_k, jp_k, j_K, jp_K)
    if j == 1:
        u_k = _u_from_neighbors(l, jm_k, jp_k)
        u_K = _u_from_neighbors(l, jm_K, jp_K)
        if k != K:
            # M_2's error, plus the rounding of the two terms of the reduction
            terms = abs(K * K * m) + abs(a * a * K * j_k * u_K)
            err = (K * K * err + _EPS * terms) / (l * (l + 1))
        n_k = _j1_from_j2(l, a, k, n_k, j_k, u_k)
        n_K = _j1_from_j2(l, a, K, n_K, j_K, u_K)
    scale = math.sqrt(n_k) * math.sqrt(n_K)  # N can be as small as 1e-300 for l >> k a
    err = err / scale if scale > 0.0 else math.inf
    if rel_tol < err < math.inf:    # an underflowed N says nothing about the diagonal
        m = _lommel_second_series(l, a, k * a, K * a, jm_k, j_k, jp_k)
    if j == 1 and k != K:
        m = _j1_from_j2(l, a, K, m, j_k, u_K)
    if k == K:
        m = n_k
    return n_k, n_K, -m if flip else m, err


def radial_integrals(mode: Mode, k: float, K: float, a: float, rel_tol: float = 1e-12) -> RadialIntegrals:
    """Self and cross radial integrals of one mode at wavenumbers (k, K).

    j=2 kernels are r j_l(alpha r); j=1 kernels combine j_l and u_l from the
    curl of the mode field.  All three integrals come in closed form from
    j_(l-1), j_l and j_(l+1) at |k| a and |K| a: Lommel's integrals for
    j=2, and for j=1 the Green-identity reduction
    l(l+1) M_1(k, K) = K^2 M_2(k, K) + a^2 K j_l(ka) u_l(Ka), whose diagonal
    k = K gives N_1.  Negative wavenumbers enter only through the parity
    factor (-1)^l of M; at |K| = |k|, M = +-N exactly.

    Near the diagonal Lommel's M_2 divides a cancelling difference t1 - t2
    by K^2 - k^2.  Its rounding error is estimated as
    eps a (|t1| + |t2|) / |K^2 - k^2|, plus the rounding of the two terms of
    the j=1 reduction.  Where that exceeds ``rel_tol`` sqrt(N_j(k) N_j(K)),
    M_2 is the Taylor series in (K - k) a of ``scalar._lommel_second_series``
    instead, which raises ConvergenceError if it does not converge.  Where
    N_j(k) or N_j(K) underflows to 0, M_2 stays Lommel's difference.
    Where K^2 - k^2 underflows to 0, it raises UnderflowError.
    """
    return RadialIntegrals(*_closed_form(mode.j, mode.l, k, K, a, rel_tol)[:3])


def _margin_cell(mode: Mode, k: float, chi: float, mu_omega: float, a: float, rel_tol: float):
    """(K, N_j(k), N_j(K), M_j(k, K), margin = scale - M^2, scale = N_j(k) N_j(K)) of one tuned cell."""
    K = _tuned_K(k, mu_omega, chi)
    n_k, n_K, m, _ = _closed_form(mode.j, mode.l, k, K, a, rel_tol)
    scale = n_k * n_K
    return K, n_k, n_K, m, scale - m * m, scale


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
    _, n_K, m, _ = _closed_form(mode.j, mode.l, k, K, a, rel_tol)
    return _weight(mode, k, K, n_K, m)


def minimality_margin(
    mode: Mode,
    k: float,
    chi: float,
    chi0: float,
    mu_omega: float,
    a: float,
    rel_tol: float = 1e-12,
) -> MarginReport:
    """Slack ratio(chi) - ratio(chi0) of the global-minimality inequality.

    Positive margin at chi^2 > chi0^2 certifies that chi0 gives the strictly
    smaller per-mode weight; the expansion argument covers the regime
    |chi| mu_omega <= 0.1 k^2, so only there should positivity be asserted.
    The scale is ratio(chi0) > 0.
    """
    K = _tuned_K(k, mu_omega, chi)
    K0 = _tuned_K(k, mu_omega, chi0)
    r_chi = mode_ratio(mode, k, K, a, rel_tol)
    r_chi0 = mode_ratio(mode, k, K0, a, rel_tol)
    return MarginReport(mode, chi, r_chi - r_chi0, MINIMALITY, r_chi0)


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
