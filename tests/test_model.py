"""Substrate classification, tuned wavenumbers, radial integrals, energies."""

import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import spherical_jn

import mp_lommel
from tunedsource import model, quadrature, scalar, specfun, theorems
from tunedsource.errors import (
    ConvergenceError,
    DegenerateModeError,
    EvanescentRegimeError,
    IncompleteSourceSpecError,
    InvalidInputError,
    UnsupportedMediumError,
)
from tunedsource.model import Mode, SourceSpec, Substrate
from tunedsource.quadrature import integrate_radial


class TestSubstrate:
    def test_vacuum_is_ordinary_boundary(self):
        s = Substrate(epsilon_r=1.0, mu_r=1.0, omega=1.0, a=1.0)
        assert s.k == s.k0 == 1.0
        assert model.classify_substrate(s) == model.ORDINARY

    def test_ordinary(self):
        s = Substrate(epsilon_r=4.0, mu_r=1.0, omega=1.0, a=1.0)
        assert s.k == pytest.approx(2.0)
        assert model.classify_substrate(s) == model.ORDINARY

    def test_dps_metamaterial(self):
        s = Substrate(epsilon_r=0.25, mu_r=1.0, omega=1.0, a=1.0)
        assert 0.0 < s.k < s.k0
        assert model.classify_substrate(s) == model.DPS

    def test_dng_metamaterial(self):
        s = Substrate(epsilon_r=-2.0, mu_r=-1.0, omega=1.0, a=1.0)
        assert s.k == pytest.approx(-math.sqrt(2.0))
        assert model.classify_substrate(s) == model.DNG

    def test_single_negative_rejected(self):
        with pytest.raises(UnsupportedMediumError):
            Substrate(epsilon_r=-1.0, mu_r=1.0, omega=1.0, a=1.0)

    def test_nihility_rejected(self):
        with pytest.raises(UnsupportedMediumError):
            Substrate(epsilon_r=0.0, mu_r=1.0, omega=1.0, a=1.0)

    def test_geometry_validated(self):
        with pytest.raises(InvalidInputError):
            Substrate(epsilon_r=1.0, mu_r=1.0, omega=1.0, a=0.0)
        with pytest.raises(InvalidInputError):
            Substrate(epsilon_r=1.0, mu_r=1.0, omega=-1.0, a=1.0)

    def test_mu_omega(self):
        s = Substrate(epsilon_r=-1.0, mu_r=-2.0, omega=1.5, a=1.0)
        assert s.mu_omega == pytest.approx(-3.0)


class TestMode:
    def test_validation(self):
        Mode(1, 1, 0)
        Mode(2, 5, -5)
        with pytest.raises(InvalidInputError):
            Mode(3, 1)
        with pytest.raises(InvalidInputError):
            Mode(1, 0)
        with pytest.raises(InvalidInputError):
            Mode(1, 2, 3)

    @pytest.mark.parametrize("fields", [(True, 2), (1.0, 2), (2, True), (2.0, 3), (1, 2.0), (2, 3, False), (2, 3, 1.0)])
    def test_bools_and_floats_rejected(self, fields):
        with pytest.raises(InvalidInputError):
            Mode(*fields)

    def test_bool_mode_never_reaches_the_cell(self):
        # Mode(2, True) used to compute as l = 1
        with pytest.raises(InvalidInputError):
            model.radial_integrals(Mode(2, True), 1.0, 1.2, 1.0)


class TestSubstrateFieldTypes:
    @pytest.mark.parametrize("field", ["epsilon_r", "mu_r", "omega", "a"])
    def test_bool_rejected(self, field):
        values = {"epsilon_r": 1.0, "mu_r": 1.0, "omega": 1.0, "a": 1.0, field: True}
        with pytest.raises(InvalidInputError):
            Substrate(**values)

    def test_ints_and_numpy_floats_accepted(self):
        s = Substrate(epsilon_r=2, mu_r=np.float64(1.0), omega=1, a=np.float64(0.5))
        assert s.k == math.sqrt(2.0)


class TestTunedWavenumber:
    def test_chi_zero(self):
        t = model.tuned_wavenumber(2.0, 1.0, 0.0)
        assert t.K == 2.0

    def test_basic(self):
        t = model.tuned_wavenumber(2.0, 1.0, 3.0)
        assert t.K == pytest.approx(1.0)

    def test_evanescent(self):
        with pytest.raises(EvanescentRegimeError):
            model.tuned_wavenumber(1.0, 1.0, 1.0)

    def test_negative_k(self):
        t = model.tuned_wavenumber(-2.0, 1.0, 0.0)
        assert t.K == 2.0  # positive root always

    def test_zero_k_rejected(self):
        with pytest.raises(InvalidInputError):
            model.tuned_wavenumber(0.0, 1.0, 0.0)


class TestRadialIntegrals:
    def test_j2_diagonal_equals_lommel(self):
        ri = model.radial_integrals(Mode(2, 3), 1.7, 1.7, 2.0)
        want = specfun.lommel_first(3, 1.7, 2.0)
        assert ri.n_self_k == want
        assert ri.n_self_K == want
        assert ri.m_cross == pytest.approx(want, rel=1e-11)

    def test_j2_cross_against_closed_form(self):
        ri = model.radial_integrals(Mode(2, 1), 1.0, 2.0, 1.0)
        want = specfun.lommel_second(1, 1.0, 2.0, 1.0)
        assert ri.m_cross == pytest.approx(want, rel=1e-10)

    def test_j1_diagonal_definition(self):
        # N_1(alpha) is the alpha = K = k case of the cross integral
        l, alpha, a = 2, 1.3, 2.5
        ri = model.radial_integrals(Mode(1, l), alpha, alpha, a)
        oracle = integrate_radial(
            lambda r: specfun.bessel_j(l, alpha * r) ** 2
            + (alpha * r * specfun.bessel_u(l, alpha * r)) ** 2 / (l * (l + 1)),
            a, 1e-12, osc_scale=alpha,
        ).value
        assert ri.n_self_k == pytest.approx(oracle, rel=1e-10)
        assert ri.m_cross == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("l", [1, 2, 5])
    def test_K_sign_flip(self, j, l):
        k, K, a = 1.2, 0.8, 1.7
        plus = model.radial_integrals(Mode(j, l), k, K, a)
        minus = model.radial_integrals(Mode(j, l), k, -K, a)
        assert minus.m_cross == pytest.approx((-1.0) ** l * plus.m_cross, rel=1e-12)
        assert minus.n_self_K == pytest.approx(plus.n_self_K, rel=1e-13)

    @pytest.mark.parametrize("j", [1, 2])
    def test_symmetry_in_wavenumbers(self, j):
        a = 2.0
        for (k, K) in [(0.7, 1.9), (1.0, 3.0), (-1.2, 0.5)]:
            m_kK = model.radial_integrals(Mode(j, 2), k, K, a).m_cross
            m_Kk = model.radial_integrals(Mode(j, 2), K, k, a).m_cross
            assert m_kK == pytest.approx(m_Kk, rel=1e-12)

    def test_cauchy_schwarz_grid(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            j = int(rng.integers(1, 3))
            l = int(rng.integers(1, 6))
            k = float(rng.uniform(0.3, 4.0)) * (1 if rng.random() < 0.5 else -1)
            K = float(rng.uniform(0.3, 4.0))
            a = float(rng.uniform(0.4, 4.0))
            ri = model.radial_integrals(Mode(j, l), k, K, a)
            assert ri.n_self_k > 0.0 and ri.n_self_K > 0.0
            assert ri.n_self_k * ri.n_self_K - ri.m_cross**2 >= -1e-9 * ri.n_self_k * ri.n_self_K

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_inputs_rejected(self, j, bad, monkeypatch):
        # rejected before any Bessel table is built
        def no_table(*args):
            raise AssertionError("a Bessel table was built")

        monkeypatch.setattr(scalar, "_jl_rows", no_table)
        monkeypatch.setattr(specfun, "_jl_table", no_table)
        for k, K, a in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
            for route in (model.radial_integrals, theorems.radial_integrals_quadrature, model.mode_ratio):
                with pytest.raises(InvalidInputError):
                    route(Mode(j, 2), k, K, a)


def _scipy_integral(j, l, k, K, a):
    """Independent oracle: scipy quad with no absolute floor."""
    def u(x):
        return spherical_jn(l, x) / x + spherical_jn(l, x, derivative=True)

    if j == 2:
        def f(r):
            return r * r * spherical_jn(l, k * r) * spherical_jn(l, K * r)
    else:
        def f(r):
            return spherical_jn(l, k * r) * spherical_jn(l, K * r) + k * K * r * r * u(k * r) * u(K * r) / (l * (l + 1))
    return scipy_quad(f, 0.0, a, epsabs=0.0, epsrel=1e-13, limit=1000)[0]


def _sweep_cells(j, rho, n=3):
    """Seeded sweep-shaped cells: l <= 30, k of either sign, |k| a in [0.5, 30],
    K^2 = k^2 (1 + rho) for the first two cells and k^2 (1 - rho) for the third."""
    rng = np.random.default_rng(round(1e6 * rho) + j)
    cells = []
    for i in range(n):
        l = int(rng.integers(1, 31))
        ka = math.exp(rng.uniform(math.log(0.5), math.log(30.0)))
        a = float(rng.uniform(0.5, 4.0))
        k = ka / a * (-1.0 if i % 2 else 1.0)
        K = abs(k) * math.sqrt(1.0 + (rho if i < 2 else -rho))
        cells.append((l, k, K, a))
    return cells


class TestClosedFormAccuracy:
    """Closed-form N and M against scipy quad and mpmath, and the near-diagonal series."""

    @staticmethod
    def check(j, l, k, K, a):
        ri = model.radial_integrals(Mode(j, l), k, K, a)
        n_k = _scipy_integral(j, l, abs(k), abs(k), a)
        n_K = _scipy_integral(j, l, K, K, a)
        m = _scipy_integral(j, l, k, K, a)
        assert ri.n_self_k == pytest.approx(n_k, rel=1e-12)
        assert ri.n_self_K == pytest.approx(n_K, rel=1e-12)
        assert abs(ri.m_cross - m) <= 1e-12 * math.sqrt(n_k) * math.sqrt(n_K)

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("rho", [1e-3, 1e-2, 0.1, 0.9])
    def test_off_diagonal(self, j, rho):
        for l, k, K, a in _sweep_cells(j, rho):
            self.check(j, l, k, K, a)

    @pytest.mark.parametrize("j", [1, 2])
    def test_floor_accept_regression(self, j):
        # l >> k a: quadrature accepted its first pass through the absolute
        # floor here and returned M off by 1e-6 to 2e-6 of sqrt(N_k N_K)
        self.check(j, 24, 0.82, 0.82 * math.sqrt(1.5), 1.0)

    @pytest.mark.parametrize("j", [1, 2])
    def test_tiny_integrals(self, j):
        # N_k N_K underflows (N ~ 1e-207 and 1e-197); the scale must not
        self.check(j, 30, 0.01, 0.015, 1.0)

    @pytest.mark.parametrize("j", [1, 2])
    def test_agrees_with_quadrature_route(self, j):
        rng = np.random.default_rng(21 + j)
        for _ in range(10):
            l = int(rng.integers(1, 7))
            k = float(rng.uniform(0.3, 4.0)) * (1 if rng.random() < 0.5 else -1)
            K = float(rng.uniform(0.3, 4.0))
            a = float(rng.uniform(0.4, 4.0))
            closed = model.radial_integrals(Mode(j, l), k, K, a)
            oracle = theorems.radial_integrals_quadrature(Mode(j, l), k, K, a)
            assert closed.n_self_k == pytest.approx(oracle.n_self_k, rel=1e-10)
            assert closed.n_self_K == pytest.approx(oracle.n_self_K, rel=1e-10)
            assert abs(closed.m_cross - oracle.m_cross) <= 1e-10 * math.sqrt(oracle.n_self_k * oracle.n_self_K)

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("l", [1, 6, 24])
    def test_exact_diagonal(self, j, l):
        for k in (0.82, -3.1, 17.0):
            ri = model.radial_integrals(Mode(j, l), k, abs(k), 1.0)
            assert ri.n_self_K == ri.n_self_k
            assert ri.m_cross == (-1.0 if k < 0 and l % 2 else 1.0) * ri.n_self_k
            assert ri.n_self_k * ri.n_self_K - ri.m_cross**2 == 0.0
            assert ri.n_self_k == pytest.approx(_scipy_integral(j, l, abs(k), abs(k), 1.0), rel=1e-12)

    @pytest.mark.parametrize("j", [1, 2])
    def test_near_diagonal_takes_the_series(self, j, monkeypatch):
        quadrature_calls, series_calls = [], []
        series = scalar._lommel_second_series

        def spy(*args):
            series_calls.append(args)
            return series(*args)

        monkeypatch.setattr(quadrature, "integrate_radial_batch", lambda *args, **kw: quadrature_calls.append(1))
        monkeypatch.setattr(scalar, "_lommel_second_series", spy)
        mode, k, a = Mode(j, 3), 1.3, 2.0
        K = k * math.sqrt(1.0 + 1e-3)
        closed = model.radial_integrals(mode, k, K, a)
        assert series_calls == []
        near = model.radial_integrals(mode, k, K, a, rel_tol=1e-14)
        assert len(series_calls) == 1
        assert quadrature_calls == []
        assert near.n_self_k == closed.n_self_k and near.n_self_K == closed.n_self_K
        assert near.m_cross == pytest.approx(closed.m_cross, rel=1e-12)

    def test_near_diagonal_grid_against_mpmath(self):
        # cells whose closed-form estimate exceeds rel_tol take the series and
        # must be accurate to 1e-13; every cell must meet rel_tol itself
        rel_tol, band = 1e-12, 0
        cells = [(l, ka, s * rho) for l in (1, 2, 6, 12, 24, 30) for ka in (0.5, 0.82, 2.0, 5.0, 12.0, 30.0)
                 for rho in (1e-10, 1e-8, 1e-6, 1e-4, 1e-3) for s in (1.0, -1.0)]
        for j in (1, 2):
            for l, k, rho in cells + [(3, -1.3, 1e-8)]:
                K = abs(k) * math.sqrt(1.0 + rho)
                _, err = model._closed_form(j, l, abs(k), K, 1.0, rel_tol)
                ri = model.radial_integrals(Mode(j, l), k, K, 1.0, rel_tol)
                n_k, n_K, m = mp_lommel.mode_integrals(j, l, k, K, 1.0, dps=50)
                bound = (1e-13 if err > rel_tol else rel_tol) * math.sqrt(n_k * n_K)
                assert abs(ri.m_cross - m) <= bound, (j, l, k, rho, err)
                band += err > rel_tol
        assert band > 100

    @pytest.mark.parametrize("rho", [1e-4, -1e-4])
    def test_near_diagonal_margin_has_the_right_sign(self, rho):
        # the quadrature fallback gave -3.69e-6 scale here; mpmath gives 5.7e-16 scale
        k = 0.82
        ri = model.radial_integrals(Mode(2, 24), k, k * math.sqrt(1.0 + rho), 1.0)
        margin, scale = model._boundedness_slack(ri)
        assert margin >= -1e-12 * scale

    def test_series_past_its_term_cap_raises(self, monkeypatch):
        # this band cell needs several terms; a ConvergenceError marks a CLI row
        monkeypatch.setattr(scalar, "_SERIES_TERMS", 1)
        with pytest.raises(ConvergenceError):
            model.radial_integrals(Mode(2, 24), 0.82, 0.82 * math.sqrt(1.0 + 1e-4), 1.0)

    def test_j2_symmetric_to_the_bit(self):
        for l, k, K, a in _sweep_cells(2, 0.1):
            m_kK = model.radial_integrals(Mode(2, l), k, K, a).m_cross
            m_Kk = model.radial_integrals(Mode(2, l), K, k, a).m_cross
            assert m_kK == m_Kk


class TestModeCoefficient:
    def test_untuned_value_l1(self):
        s = Substrate(epsilon_r=1.0, mu_r=1.0, omega=1.0, a=math.pi)
        t = model.tuned_wavenumber(s.k, s.mu_omega, 0.0)
        R = model.mode_coefficient(Mode(2, 1), s, t)
        assert R == pytest.approx(2.0 / math.pi, rel=1e-10)

    @pytest.mark.parametrize("j,l", [(1, 1), (2, 1), (1, 3), (2, 4)])
    def test_untuned_reciprocal_self_integral(self, j, l):
        s = Substrate(epsilon_r=2.0, mu_r=1.0, omega=1.0, a=1.5)
        t = model.tuned_wavenumber(s.k, s.mu_omega, 0.0)
        R = model.mode_coefficient(Mode(j, l), s, t)
        n = model.radial_integrals(Mode(j, l), s.k, s.k, s.a).n_self_k
        assert R == pytest.approx(1.0 / n, rel=1e-10)

    def test_k_sign_invariance(self):
        s_pos = Substrate(epsilon_r=2.0, mu_r=2.0, omega=1.0, a=1.0)
        s_neg = Substrate(epsilon_r=-2.0, mu_r=-2.0, omega=1.0, a=1.0)
        assert s_neg.k == -s_pos.k
        for (j, l) in [(1, 1), (2, 2)]:
            t_pos = model.tuned_wavenumber(s_pos.k, s_pos.mu_omega, 0.5)
            t_neg = model.tuned_wavenumber(s_neg.k, s_neg.mu_omega, -0.5)
            assert t_pos.K == t_neg.K
            r_pos = model.mode_coefficient(Mode(j, l), s_pos, t_pos)
            r_neg = model.mode_coefficient(Mode(j, l), s_neg, t_neg)
            assert r_neg == pytest.approx(r_pos, rel=1e-12)

    def test_m_independence(self):
        s = Substrate(epsilon_r=1.0, mu_r=1.0, omega=1.0, a=2.0)
        t = model.tuned_wavenumber(s.k, s.mu_omega, 0.3)
        vals = {model.mode_coefficient(Mode(1, 2, m), s, t) for m in (-2, 0, 1)}
        assert len(vals) == 1

    def test_degenerate_cross_integral(self, monkeypatch):
        monkeypatch.setattr(
            model, "_closed_form", lambda *args: (model.RadialIntegrals(1.0, 1.0, 0.0), 0.0)
        )
        s = Substrate(epsilon_r=1.0, mu_r=1.0, omega=1.0, a=1.0)
        t = model.tuned_wavenumber(s.k, s.mu_omega, 0.0)
        with pytest.raises(DegenerateModeError):
            model.mode_coefficient(Mode(1, 1), s, t)


    @pytest.mark.parametrize("j", [1, 2])
    def test_underflowing_cross_integral(self, j):
        # l = 40, k a = 0.025: M ~ 2e-252 is nonzero, but M^2 underflows to 0
        mode, k, a = Mode(j, 40), 0.05, 0.5
        K = math.sqrt(k * k - 1e-4 * k)
        assert 0.0 < model.radial_integrals(mode, k, K, a).m_cross < 1e-200
        with pytest.raises(DegenerateModeError):
            model.mode_ratio(mode, k, K, a)

    @pytest.mark.parametrize("m_cross", [1e-170, -1e-160])
    def test_nonfinite_weight_is_degenerate(self, m_cross, monkeypatch):
        # M^2 underflows to 0, or N_K / M^2 overflows to inf
        monkeypatch.setattr(
            model, "_closed_form", lambda *args: (model.RadialIntegrals(1.0, 1.0, m_cross), 0.0)
        )
        with pytest.raises(DegenerateModeError):
            model.mode_ratio(Mode(2, 1), 1.0, 1.0, 1.0)


class TestSourceEnergy:
    def coefficients(self):
        return {Mode(1, 1): 2.0, Mode(2, 1, 1): 0.5, Mode(2, 2): 1.25}

    def test_single_unit_amplitude(self):
        spec = SourceSpec({Mode(1, 1): 1.0 + 0.0j})
        assert model.source_energy(spec, self.coefficients()) == pytest.approx(2.0)

    def test_zero_amplitudes(self):
        spec = SourceSpec({Mode(1, 1): 0.0, Mode(2, 2): 0.0})
        assert model.source_energy(spec, self.coefficients()) == 0.0

    def test_two_mode_additivity(self):
        a = SourceSpec({Mode(1, 1): 1.0 + 2.0j})
        b = SourceSpec({Mode(2, 2): 0.5j})
        both = SourceSpec({Mode(1, 1): 1.0 + 2.0j, Mode(2, 2): 0.5j})
        coeff = self.coefficients()
        assert model.source_energy(both, coeff) == pytest.approx(
            model.source_energy(a, coeff) + model.source_energy(b, coeff)
        )

    def test_missing_coefficient(self):
        spec = SourceSpec({Mode(1, 5): 1.0})
        with pytest.raises(IncompleteSourceSpecError):
            model.source_energy(spec, self.coefficients())

    def test_nonfinite_amplitude_rejected(self):
        with pytest.raises(InvalidInputError):
            SourceSpec({Mode(1, 1): complex("inf")})

    @pytest.mark.parametrize("amp", ["abc", "1", None, True, [1.0]])
    def test_non_number_amplitude_rejected(self, amp):
        # "abc" used to raise ValueError and None TypeError; "1" and True passed as 1
        with pytest.raises(InvalidInputError, match="must be a number"):
            SourceSpec({Mode(1, 1): amp})

    def test_numpy_amplitudes_accepted(self):
        spec = SourceSpec({Mode(1, 1): np.float64(2.0), Mode(2, 2): np.complex128(1.0j), Mode(2, 1): 3})
        assert model.source_energy(spec, {Mode(1, 1): 1.0, Mode(2, 2): 1.0, Mode(2, 1): 1.0}) == 14.0

    def test_positive_rescaling_preserves_energy_difference_signs(self):
        # a common positive per-mode rescaling multiplies every energy by the
        # same constant, so the sign of any tuned/untuned difference survives
        spec = SourceSpec({Mode(1, 1): 1.0, Mode(2, 2): 2.0 - 1.0j})
        tuned = {Mode(1, 1): 2.5, Mode(2, 2): 0.75}
        untuned = {Mode(1, 1): 2.0, Mode(2, 2): 0.5}
        diff = model.source_energy(spec, tuned) - model.source_energy(spec, untuned)
        for c in (0.1, 3.0, 1e6):
            scaled = model.source_energy(spec, {m: c * v for m, v in tuned.items()}) - \
                model.source_energy(spec, {m: c * v for m, v in untuned.items()})
            assert math.copysign(1.0, scaled) == math.copysign(1.0, diff)
            assert scaled == pytest.approx(c * diff, rel=1e-12)
