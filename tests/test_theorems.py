"""Margin, curl-recast, and expansion-coefficient certification tests."""

import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import spherical_jn

import mp_lommel
from tunedsource import model, quadrature, scalar, specfun, theorems
from tunedsource.errors import IllConditionedExpansionError, IntegrandDomainError, InvalidInputError
from tunedsource.model import Mode, radial_integrals, tuned_wavenumber
from tunedsource.quadrature import integrate_radial


_BAD_WAVENUMBERS = [math.nan, math.inf, -math.inf, 0.0]


def _u(l, x):
    return spherical_jn(l, x) / x + spherical_jn(l, x, derivative=True)


class TestBoundednessMargin:
    def test_equality_at_chi_zero(self):
        for j in (1, 2):
            for l in (1, 3):
                rep = theorems.boundedness_margin(Mode(j, l), 1.5, 0.0, 1.0, 2.0)
                assert abs(rep.margin) <= 1e-10 * rep.scale

    def test_independent_quadrature_oracle(self):
        # j=2, l=1, k=1, K=2 (chi = -3 at mu*omega = 1); both sides via scipy
        l, k, K, a = 1, 1.0, 2.0, 1.0
        n_k, _ = scipy_quad(lambda r: (r * spherical_jn(l, k * r)) ** 2, 0, a, epsabs=1e-14, epsrel=1e-13)
        n_K, _ = scipy_quad(lambda r: (r * spherical_jn(l, K * r)) ** 2, 0, a, epsabs=1e-14, epsrel=1e-13)
        m, _ = scipy_quad(lambda r: r * r * spherical_jn(l, k * r) * spherical_jn(l, K * r),
                          0, a, epsabs=1e-14, epsrel=1e-13)
        oracle_margin = n_k * n_K - m * m
        rep = theorems.boundedness_margin(Mode(2, l), k, -3.0, 1.0, a)
        assert rep.margin == pytest.approx(oracle_margin, rel=1e-9)
        assert rep.margin >= 0.0

    def test_dng_parity(self):
        # k -> -k leaves the margin unchanged
        for j in (1, 2):
            rep_pos = theorems.boundedness_margin(Mode(j, 2), 1.5, 0.83, 1.0, 3.0)
            rep_neg = theorems.boundedness_margin(Mode(j, 2), -1.5, 0.83, 1.0, 3.0)
            assert rep_neg.margin == pytest.approx(rep_pos.margin, rel=1e-12, abs=1e-300)
            assert rep_neg.scale == pytest.approx(rep_pos.scale, rel=1e-12)

    def test_report_fields(self):
        rep = theorems.boundedness_margin(Mode(1, 1), 1.0, 0.25, 1.0, 1.0)
        assert rep.kind == theorems.BOUNDEDNESS
        assert rep.scale > 0.0
        assert rep.chi == 0.25


class TestCurlIdentity:
    @pytest.mark.parametrize("l,k,K,a", [(1, 1.0, 1.0, 2.0), (3, 1.0, 2.0, 5.0), (2, -1.5, 0.7, 3.0)])
    def test_examples(self, l, k, K, a):
        assert theorems.curl_identity_check(l, k, K, a) <= 1e-10

    def test_diagonal(self):
        for l in (1, 2, 5):
            assert theorems.curl_identity_check(l, 1.3, 1.3, 2.0) <= 1e-12

    def test_independent_angular_factor(self):
        # both sides via scipy with the explicit (l(l+1))^2 factor
        l, k, K, a = 2, 1.0, 1.7, 2.0
        ll1 = l * (l + 1)
        curl, _ = scipy_quad(
            lambda r: ll1**2 * spherical_jn(l, k * r) * spherical_jn(l, K * r)
            + ll1 * k * K * r * r * _u(l, k * r) * _u(l, K * r),
            0, a, epsabs=1e-14, epsrel=1e-13, limit=200,
        )
        kernel, _ = scipy_quad(
            lambda r: spherical_jn(l, k * r) * spherical_jn(l, K * r)
            + k * K * r * r * _u(l, k * r) * _u(l, K * r) / ll1,
            0, a, epsabs=1e-14, epsrel=1e-13, limit=200,
        )
        assert curl == pytest.approx(ll1**2 * kernel, rel=1e-11)

    def test_l_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            theorems.curl_identity_check(0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", ["3", 2.0, True, 0])
    def test_order_must_be_an_integer_at_least_one(self, bad):
        # "3" used to raise TypeError from the comparison l < 1
        with pytest.raises(InvalidInputError):
            theorems.curl_identity_check(bad, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", _BAD_WAVENUMBERS)
    def test_rejects_zero_or_nonfinite_wavenumber(self, bad):
        # a zero K used to give a passing discrepancy of 0.0
        for k, K in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(InvalidInputError):
                theorems.curl_identity_check(1, k, K, 1.0)


class TestMinimalityMargin:
    def test_zero_at_equal_arguments(self):
        rep = model.minimality_margin(Mode(1, 2), 1.5, 0.3, 0.3, 1.0, 2.0)
        assert rep.margin == 0.0

    def test_small_chi_quadratic_growth(self):
        # chi0 = 0: margin ~ f2 chi^2 for small chi
        l, k, a, mw = 2, 1.5, 2.0, 1.0
        f2 = theorems.expansion_j2(l, k, a, mw).f2
        chi = 0.01 * k * k / mw
        rep = model.minimality_margin(Mode(2, l), k, chi, 0.0, mw, a, 1e-13)
        assert rep.margin == pytest.approx(f2 * chi * chi, rel=0.05)
        assert rep.margin > 0.0

    def test_sign_flip_j1_third_order(self):
        # f1 = 0: margins at +-chi agree to O(chi^3)
        l, k, a, mw = 1, 1.0, 2.0, 1.0
        chi = 1e-3 * k * k / mw
        plus = model.minimality_margin(Mode(1, l), k, chi, 0.0, mw, a, 1e-14)
        minus = model.minimality_margin(Mode(1, l), k, -chi, 0.0, mw, a, 1e-14)
        assert minus.margin == pytest.approx(plus.margin, rel=0.05)

    def test_positive_for_larger_magnitude(self):
        l, k, a, mw = 1, 2.0, 1.0, 1.0
        chi0 = -0.01 * k * k / mw
        for t in (0.02, -0.05, 0.08):
            chi = t * k * k / mw
            rep = model.minimality_margin(Mode(1, l), k, chi, chi0, mw, a)
            assert rep.margin > 1e-12 * rep.scale

    def test_kind_and_scale(self):
        rep = model.minimality_margin(Mode(2, 1), 1.0, 0.05, 0.0, 1.0, 1.0)
        assert rep.kind == model.MINIMALITY
        assert rep.scale > 0.0

    def test_chi0_zero_reduces_to_weight_difference(self):
        # when the tuning set contains 0, the minimality margin is literally
        # the per-mode weight difference R|_chi - R|_0 (same cached quantities)
        from tunedsource.model import Substrate, mode_coefficient, tuned_wavenumber

        s = Substrate(epsilon_r=1.0, mu_r=1.0, omega=1.3, a=2.0)
        mode = Mode(1, 2)
        chi = 0.07
        rep = model.minimality_margin(mode, s.k, chi, 0.0, s.mu_omega, s.a)
        r_chi = mode_coefficient(mode, s, tuned_wavenumber(s.k, s.mu_omega, chi))
        r_0 = mode_coefficient(mode, s, tuned_wavenumber(s.k, s.mu_omega, 0.0))
        assert rep.margin == pytest.approx(r_chi - r_0, rel=1e-12, abs=1e-300)


class TestExpansionJ2:
    def test_f0_value_l1(self):
        coeffs = theorems.expansion_j2(1, 1.0, math.pi, 1.0)
        assert coeffs.f0 == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_f0_equals_reciprocal_self_integral(self):
        for (l, k, a) in [(1, 1.0, 1.0), (3, -2.0, 2.0), (6, 0.5, math.pi)]:
            coeffs = theorems.expansion_j2(l, k, a, 1.0)
            assert coeffs.f0 == pytest.approx(1.0 / specfun.lommel_first(l, k, a), rel=1e-10)

    def test_f1_identically_zero(self):
        assert theorems.expansion_j2(4, 1.2, 2.0, 0.7).f1 == 0.0

    @pytest.mark.parametrize("k,mw,bad", [
        (1.3407807929942596e154, 1.0, "f0 = inf"),    # N_2 is the subnormal 2.78e-309
        (1.0, 1e200, "f2 = inf"),
        (1.0, 1e-200, "f2 = 0.0"),
    ], ids=["f0_overflows", "f2_overflows", "f2_underflows"])
    def test_coefficient_outside_the_doubles_raises(self, k, mw, bad):
        # each was returned as a plausible coefficient
        with pytest.raises(IllConditionedExpansionError, match=f"^expansion .*{bad}.*: need f0 < inf, 0 < f2 < inf$"):
            theorems.expansion_j2(2, k, 1.0, mw)

    # frozen oracle: 40..50-digit evaluations of the second chi-derivative of
    # the ratio N_2(K)/M_2(k,K)^2 built from the Lommel closed forms
    F2_ORACLE = [
        (1, 1.0, 1.0, 1.0, 2.616715631605e-02, 1e-9),
        (2, 1.0, math.pi, 1.0, 5.294710881782e-02, 1e-9),
        (1, 2.0, 1.0, 0.5, 3.520148988817e-03, 1e-9),
        (3, -1.5, 2.0, 1.0, 7.090749568076e-02, 1e-9),
        (6, 3.0, 2.0, 2.0, 2.914887992e-01, 1e-8),
        (4, 0.5, 1.0, 1.0, 92772.2069773884, 1e-8),
        (6, 0.5, 1.0, 1.0, 13901718852.535576, 5e-8),
        (6, -0.5, math.pi, 0.5, 14159.043527408623, 1e-8),
        (5, 0.5, 1.0, 0.5, 7405427.4496364758, 5e-8),
        (6, 2.0, math.pi, 1.0, 0.092100130011127406, 1e-9),
    ]

    @pytest.mark.parametrize("l,k,a,mw,want,tol", F2_ORACLE)
    def test_f2_against_frozen_oracle(self, l, k, a, mw, want, tol):
        coeffs = theorems.expansion_j2(l, k, a, mw)
        assert coeffs.f2 == pytest.approx(want, rel=tol)

    @pytest.mark.parametrize("signs", [(1, 1, 1), (1, -1, 1)])
    def test_f2_ignores_the_last_bits_of_the_table(self, monkeypatch, signs):
        # the quartic cancels: from the doubles alone, one ulp on each of
        # j_(l-1), j_l, j_(l+1) moved f2 by 2.5e-8 here
        l, k, a, mw = 6, 0.5, 1.0, 1.0
        want = theorems.expansion_j2(l, k, a, mw).f2
        triple = scalar._jl_triple.__wrapped__    # past the memo, which holds the unnudged triple

        def nudged(order, x):
            towards = (math.inf if sign > 0 else -math.inf for sign in signs)
            return tuple(map(math.nextafter, triple(order, x), towards))

        monkeypatch.setattr(scalar, "_jl_triple", nudged)
        got = theorems.expansion_j2(l, k, a, mw).f2
        assert got != want
        assert abs(got - want) <= 1e-14 * abs(want)

    def test_f0_is_the_cells_reciprocal_self_integral(self):
        # one f0 per mode: 1 / N_2(|k|) of the closed-form cell, to the bit
        for l, k, a, mw, _ in _fd_oracle_bundles(1, 200):
            assert theorems.expansion_j2(l, k, a, mw).f0 == 1.0 / radial_integrals(Mode(2, l), k, k, a).n_self_k

    def test_f0_against_mpmath(self):
        # the docstring's bound, 4 (l + 3) eps for l <= 30 and 0.01 <= k a <= 40
        rng = np.random.default_rng(90)
        checked = 0
        for _ in range(300):
            l = int(rng.integers(1, 31))
            ka = float(np.exp(rng.uniform(math.log(0.01), math.log(40.0))))
            a = float(rng.uniform(0.5, 3.0))
            k = float(rng.choice([1.0, -1.0])) * ka / a
            f0 = theorems.expansion_j2(l, k, a, 1.0).f0
            want = mp_lommel.f0_j2(l, k, a)
            assert abs((f0 - want) / want) <= 4 * (l + 3) * sys.float_info.epsilon, (l, k, a)
            checked += 1
        assert checked == 300

    @pytest.mark.parametrize("l", [10, 20, 25, 27, 30, 40, 60])
    def test_f2_at_high_order_against_mpmath(self, l):
        # the quartic in doubles was off by 4.5e-6, 6.5e-5 and 3.1e-2 at l = 10, 20 and 25; from l = 27 on, a
        # float copy of f2's denominator underflowed to 0 and raised, though f2 is a finite double
        want = mp_lommel.f2_j2(l, 1.0, 0.25, 1.0)
        assert theorems.expansion_j2(l, 1.0, 0.25, 1.0).f2 == pytest.approx(want, rel=1e-12)

    def test_f2_grid_against_mpmath(self):
        # both sides of k a = l, where the quartic cancels least; at l = 10,
        # k a = 1e-3 it keeps 20 digits only from 80 digits on; from k a = 400
        # on at l = 6 the doubles serve, where the recurrence would be long
        for l, ka in [(1, 1e-3), (10, 1e-3), (2, 0.05), (3, 0.7), (6, 4.0), (6, 9.0), (12, 2.0), (12, 30.0),
                      (26, 0.25), (6, 400.0), (3, 1e8)]:
            for k, a, mw in [(ka, 1.0, 1.0), (-ka / 2.0, 2.0, 0.5)]:
                want = mp_lommel.f2_j2(l, k, a, mw)
                assert theorems.expansion_j2(l, k, a, mw).f2 == pytest.approx(want, rel=1e-13), (l, k, a)

    def test_f2_parity_in_k(self):
        for (l, k, a, mw) in [(1, 1.3, 1.0, 1.0), (4, 0.7, 2.0, 0.5)]:
            plus = theorems.expansion_j2(l, k, a, mw)
            minus = theorems.expansion_j2(l, -k, a, mw)
            assert minus.f2 == pytest.approx(plus.f2, rel=1e-12)
            assert minus.f0 == pytest.approx(plus.f0, rel=1e-12)

    def test_f2_scaling_in_mu_omega(self):
        base = theorems.expansion_j2(2, 1.0, 1.5, 1.0)
        double = theorems.expansion_j2(2, 1.0, 1.5, 2.0)
        assert double.f2 == pytest.approx(4.0 * base.f2, rel=1e-14)
        assert double.f0 == base.f0

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            theorems.expansion_j2(0, 1.0, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            theorems.expansion_j2(1, 0.0, 1.0, 1.0)
        # a <= 0 gave f0 = -1/N_2 (a < 0) or an ill-conditioning error (a = 0)
        for k, a in ((math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan), (1.0, 0.0), (1.0, -1.5)):
            with pytest.raises(InvalidInputError):
                theorems.expansion_j2(2, k, a, 1.0)

    @pytest.mark.parametrize("mw", [0.0, math.nan, math.inf, -math.inf])
    def test_rejects_zero_or_nonfinite_mu_omega(self, mw):
        # f2 used to come out as 0.0 for mu_omega = 0 and as nan or inf otherwise
        with pytest.raises(InvalidInputError, match="mu_omega"):
            theorems.expansion_j2(2, 1.0, 1.0, mw)

    @pytest.mark.parametrize("l", [1.5, 2.0, True, "2"])
    def test_order_must_be_an_integer(self, l):
        # 1.5 used to raise TypeError, and True computed as l = 1
        with pytest.raises(InvalidInputError, match="order l"):
            theorems.expansion_j2(l, 1.0, 1.0, 1.0)

    def test_numpy_integer_order(self):
        assert theorems.expansion_j2(np.int64(3), 1.2, 2.0, 0.7) == theorems.expansion_j2(3, 1.2, 2.0, 0.7)


class TestExpansionFd:
    @pytest.mark.parametrize("l,k,a,mw", [(1, 1.0, 1.0, 1.0), (3, -1.5, 2.0, 1.0), (5, 0.5, 1.0, 0.5)])
    def test_matches_closed_form(self, l, k, a, mw):
        fd = theorems.expansion_fd(2, l, k, a, mw)
        cf = theorems.expansion_j2(l, k, a, mw)
        assert fd.f0 == pytest.approx(cf.f0, rel=1e-10)
        assert abs(fd.f1) <= 1e-8 * cf.f0
        assert fd.f2 == pytest.approx(cf.f2, rel=1e-4)

    def test_j1_has_vanishing_f1(self):
        fd = theorems.expansion_fd(1, 2, 1.5, 2.0, 1.0)
        assert abs(fd.f1) <= 1e-6 * fd.f0
        assert fd.f2 > 0.0

    def test_method_labels(self):
        assert theorems.expansion_fd(2, 1, 1.0, 1.0, 1.0).method == "finite-difference"
        assert theorems.expansion_j2(1, 1.0, 1.0, 1.0).method == "closed-form"

    @pytest.mark.parametrize("k,match", [("1", "k must be a real number"), (True, "k must be a real number"),
                                         (0.0, "nonzero"), (math.inf, "finite")])
    def test_rejects_k_before_forming_the_ladder(self, k, match):
        # k * k / mu_omega raised a bare TypeError for a string k
        for j in (1, 2):
            with pytest.raises(InvalidInputError, match=match):
                theorems.expansion_fd(j, 1, k, 1.0, 1.0)

    @pytest.mark.parametrize("mw", [0.0, -0.0, math.inf, -math.inf, math.nan])
    def test_rejects_zero_or_nonfinite_mu_omega(self, mw):
        # the step ladder is in units of k^2 / mu_omega
        with pytest.raises(InvalidInputError, match="mu_omega"):
            theorems.expansion_fd(1, 1, 1.0, 1.0, mw)


class TestSeriesIntegralsJ1:
    def test_c0_equals_self_integral(self):
        for (l, k, a, mw) in [(1, 1.0, 2.0, 1.0), (3, -1.3, 2.0, 1.0), (5, 2.0, 1.0, 0.5)]:
            si = theorems.series_integrals_j1(l, k, a, mw)
            n1 = radial_integrals(Mode(1, l), abs(k), abs(k), a).n_self_k
            assert si.c0 == pytest.approx(n1, rel=1e-10)

    def test_d0_equals_c0_positive_k(self):
        si = theorems.series_integrals_j1(2, 1.5, 1.0, 0.7)
        assert si.d0 == pytest.approx(si.c0, rel=1e-12)
        assert si.c1 == pytest.approx(2.0 * si.d1, rel=1e-12)

    def test_d0_negative_k_even_l(self):
        si = theorems.series_integrals_j1(2, -1.3, 2.0, 1.0)
        assert si.d0 == pytest.approx(si.c0, rel=1e-10)

    def test_d0_negative_k_odd_l(self):
        # the k^(2-l)|k|^l prefactor and the mixed-argument product each carry
        # (-1)^l for k < 0, so d0 = (-1)^l c0; for odd l the two series share
        # the sign through d1 as well and f1 still cancels exactly
        si = theorems.series_integrals_j1(3, -1.3, 2.0, 1.0)
        assert si.d0 == pytest.approx(-si.c0, rel=1e-10)
        assert si.c1 == pytest.approx(-2.0 * si.d1, rel=1e-10)

    def test_c1_is_chi_derivative_of_self_integral(self):
        # frozen from a 40-digit evaluation of d N_1(K(chi)) / d chi at chi = 0
        si = theorems.series_integrals_j1(1, 1.0, 2.0, 1.0)
        assert si.c1 == pytest.approx(-9.9347117739e-02, rel=1e-9)
        si = theorems.series_integrals_j1(2, 1.5, 1.0, 0.7)
        assert si.c1 == pytest.approx(-4.2452373972e-03, rel=1e-9)

    def test_d1_is_chi_derivative_of_cross_integral(self):
        si = theorems.series_integrals_j1(3, -1.3, 2.0, 1.0)
        assert si.d1 == pytest.approx(5.7426678804e-03, rel=1e-9)

    @pytest.mark.parametrize("bad", _BAD_WAVENUMBERS)
    def test_rejects_zero_or_nonfinite_k(self, bad):
        with pytest.raises(InvalidInputError):
            theorems.series_integrals_j1(2, bad, 1.0, 0.7)

    def test_integrand_overflow_at_the_last_finite_k_squared(self):
        # (l + 1) k^2 r^2 in c1's integrand overflows: numpy's "overflow encountered in multiply" escaped
        with pytest.raises(IntegrandDomainError, match="non-finite sample"):
            theorems.series_integrals_j1(2, 1.3407807929942596e154, 1.0, 1.0)


class TestF1VanishingCheck:
    @pytest.mark.parametrize(
        "l,k,a,mw",
        [(1, 1.0, 2.0, 1.0), (4, -2.0, 1.0, 0.5), (3, -1.3, 2.0, 1.0), (6, 0.5, math.pi, 1.0)],
    )
    def test_residual_small(self, l, k, a, mw):
        rep = theorems.f1_vanishing_check(l, k, a, mw)
        assert rep.passed
        assert rep.residual <= 1e-8
        assert rep.f0 > 0.0

    def test_fd_cross_validation(self):
        for (l, k, a, mw) in [(1, 1.0, 2.0, 1.0), (4, -2.0, 1.0, 0.5)]:
            fd = theorems.expansion_fd(1, l, k, a, mw)
            assert abs(fd.f1) / fd.f0 <= 1e-6

    def test_tolerance_respected(self):
        rep = theorems.f1_vanishing_check(1, 1.0, 2.0, 1.0, tol=0.0)
        # residual can be exactly zero only by bitwise coincidence
        assert rep.passed == (rep.residual == 0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, -1e-300, True, "1e-8", None])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        # nan and -1 used to give passed=False with residual 0.0, a plausible-looking row
        with pytest.raises(InvalidInputError, match="tol"):
            theorems.f1_vanishing_check(1, 1.0, 2.0, 1.0, tol=tol)

    @pytest.mark.parametrize("bad", _BAD_WAVENUMBERS)
    def test_rejects_zero_or_nonfinite_k(self, bad):
        with pytest.raises(InvalidInputError):
            theorems.f1_vanishing_check(2, bad, 1.0, 0.7)

    @pytest.mark.parametrize("mw", [0.0, math.nan, math.inf])
    def test_rejects_zero_or_nonfinite_mu_omega(self, mw):
        # mu_omega = 0 used to pass with residual 0: c1 = d1 = 0 make f1 vanish trivially
        with pytest.raises(InvalidInputError, match="mu_omega"):
            theorems.f1_vanishing_check(2, 1.0, 1.0, mw)

    @pytest.mark.parametrize("l", [1.5, True])
    def test_order_must_be_an_integer(self, l):
        with pytest.raises(InvalidInputError, match="order l"):
            theorems.series_integrals_j1(l, 1.0, 1.0, 0.7)


class TestDefaultChiGrid:
    def test_contains_exact_zero(self):
        grid = theorems.default_chi_grid(2.0, 1.0)
        assert 0.0 in grid
        assert len(grid) == 21

    def test_symmetric_and_admissible(self):
        k, mw = 1.5, 2.0
        grid = np.asarray(theorems.default_chi_grid(k, mw))
        assert np.allclose(grid, -grid[::-1])
        assert np.all(k * k - grid * mw > 0.0)

    def test_validation(self):
        with pytest.raises(InvalidInputError, match=r"^n must be odd, got 20$"):
            theorems.default_chi_grid(1.0, 1.0, n=20)
        with pytest.raises(InvalidInputError):
            theorems.default_chi_grid(1.0, 1.0, span=1.5)

    @pytest.mark.parametrize("span", [0.0, 1.0, -0.5, math.nan, math.inf, "0.5", None, True])
    def test_span_must_be_a_real_in_the_open_unit_interval(self, span):
        # "0.5" and None were compared before any type check and raised a bare TypeError
        with pytest.raises(InvalidInputError, match="span must"):
            theorems.default_chi_grid(1.0, 1.0, 21, span)

    @pytest.mark.parametrize("n", [True, 3.0, 0, -1])
    def test_n_must_be_a_positive_odd_integer(self, n):
        # True used to give the one-point grid and 3.0 a grid of three; n takes scalar._int's rule, then must be odd
        with pytest.raises(InvalidInputError, match=rf"^n must be an integer >= 1 that an index holds, got {n!r}$"):
            theorems.default_chi_grid(1.0, 1.0, n=n)

    def test_one_point_grid(self):
        grid = theorems.default_chi_grid(1.5, 2.0, n=1)
        assert list(grid) == [0.0]

    def test_grid_has_the_bits_of_the_array_formula(self):
        # the grid was the float array arange(-half, half + 1) * (span / half) * (k * k / mu_omega); the tuple of
        # floats keeps its bits, the -0.0 of a negative mu_omega included, and its n = 1 grid [0.0]
        rng = np.random.default_rng(33)
        for _ in range(400):
            k, mw = (float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)) for _ in range(2))
            n = 2 * int(rng.integers(0, 21)) + 1
            span = float(rng.choice([0.9, rng.uniform(1e-3, 1.0)]))
            half = (n - 1) // 2
            want = np.zeros(1) if half == 0 else np.arange(-half, half + 1, dtype=float) * (span / half) * (k * k / mw)
            got = theorems.default_chi_grid(k, mw, n, span)
            assert type(got) is tuple and all(type(chi) is float for chi in got)
            assert np.array(got).tobytes() == want.tobytes(), (k, mw, n, span)
        assert math.copysign(1.0, theorems.default_chi_grid(1.0, -1.0)[10]) == -1.0

    @pytest.mark.parametrize("mw", [0.0, -0.0, math.inf, -math.inf, math.nan])
    def test_rejects_zero_or_nonfinite_mu_omega(self, mw):
        # a NaN mu_omega used to return a grid of NaNs, a zero one to divide by zero
        with pytest.raises(InvalidInputError, match="mu_omega"):
            theorems.default_chi_grid(1.0, mw)

    @pytest.mark.parametrize("k", _BAD_WAVENUMBERS)
    def test_rejects_zero_or_nonfinite_k(self, k):
        # k = 0 used to return 21 zeros, a nan k a grid of nans
        with pytest.raises(InvalidInputError, match="k must be"):
            theorems.default_chi_grid(k, 1.0)


# -- the one-integral-at-a-time oracle routes the lockstep batches replaced --


def _reference_integrand(j, l, k, K):
    ll1 = l * (l + 1)

    def f(r):
        x = np.concatenate([k * r, K * r])
        if j == 2:
            jk, jK = np.split(specfun.bessel_j(l, x), 2)
            return r * r * jk * jK
        jv, uv = specfun.bessel_j_and_u(l, x)
        (jk, jK), (uk, uK) = np.split(jv, 2), np.split(uv, 2)
        return jk * jK + k * K * r * r * uk * uK / ll1

    return f


def _reference_quadrature(j, l, k, K, a, rel_tol):
    return integrate_radial(_reference_integrand(j, l, k, K), a, rel_tol, osc_scale=theorems._osc(k, K)).value


def reference_ratio(j, l, k, K, a, rel_tol):
    if j == 2:
        n_K = specfun.lommel_first(l, abs(K), a)
    else:
        n_K = _reference_quadrature(1, l, abs(K), abs(K), a, rel_tol)
    m = n_K if j == 1 and k == K else _reference_quadrature(j, l, k, K, a, rel_tol)
    return n_K / (m * m)


def reference_expansion_fd(j, l, k, a, mu_omega, rel_tol):
    def ratio(chi):
        return reference_ratio(j, l, k, tuned_wavenumber(k, mu_omega, chi).K, a, rel_tol)

    scale = k * k / mu_omega
    r0 = ratio(0.0)
    d1, d2 = [], []
    for t in theorems._FD_STEPS:
        h = t * scale
        rp, rm = ratio(h), ratio(-h)
        d1.append((rp - rm) / (2.0 * h))
        d2.append((rp - 2.0 * r0 + rm) / (h * h))
    f2 = 0.5 * theorems._scan_richardson(d2)
    return theorems.ExpansionCoeffs(j, r0, theorems._scan_richardson(d1), f2, "finite-difference")


def _neighbor_rows(l, x):
    """j_(l-1), j_l and j_(l+1) at x, each with its parity, from one table of top l+1."""
    return specfun._on_table(x, l + 1, lambda table, *_: [(table[n], n % 2 == 1) for n in (l - 1, l, l + 1)])


def reference_series_integrals_j1(l, k, a, mu_omega, rel_tol):
    ak, k2, ll1, two_l1_sq = abs(k), k * k, l * (l + 1), (2 * l + 1) ** 2
    pref_d0 = k ** (2 - l) * ak**l
    pref_d1 = k ** (-l - 2) * ak**l

    def c0_f(r):
        jm, j, jp = _neighbor_rows(l, ak * r)
        r2 = r * r
        return (
            k2 * (l + 1) ** 2 * r2 * jm * jm
            - 2.0 * k2 * ll1 * r2 * jm * jp
            + l * (k2 * l * r2 * jp * jp + (l + 1) * two_l1_sq * j * j)
        ) / (ll1 * two_l1_sq)

    def c1_f(r):
        _, j, jp = _neighbor_rows(l, ak * r)
        r2 = r * r
        bracket = (l + 1) * (-k2 * r2 + 2 * l * l + l) * j + r * ak * (k2 * r2 - 2 * l * l - 2 * l) * jp
        return -(mu_omega / (ll1 * k2)) * j * bracket

    def d0_f(r):
        jm_s, j_s, jp_s = _neighbor_rows(l, k * r)
        _, j_a, _ = _neighbor_rows(l, ak * r)
        comb = (l + 1) * jm_s - l * jp_s
        return r * r * pref_d0 * comb * comb / (ll1 * two_l1_sq) + j_s * j_a

    def d1_f(r):
        _, j_s, jp_s = _neighbor_rows(l, k * r)
        r2 = r * r
        bracket = (l + 1) * (-k2 * r2 + 2 * l * l + l) * j_s + k * r * (k2 * r2 - 2 * l * l - 2 * l) * jp_s
        return -(mu_omega * pref_d1 / (2.0 * ll1)) * j_s * bracket

    values = [integrate_radial(f, a, rel_tol, osc_scale=theorems._osc(k, k)).value for f in (c0_f, c1_f, d0_f, d1_f)]
    return theorems.SeriesIntegralsJ1(*values)


def reference_curl_identity_check(l, k, K, a, rel_tol):
    ll1 = l * (l + 1)

    def curl_side(r):
        jv, uv = specfun.bessel_j_and_u(l, np.concatenate([k * r, K * r]))
        (jk, jK), (uk, uK) = np.split(jv, 2), np.split(uv, 2)
        return ll1 * ll1 * jk * jK + ll1 * k * K * r * r * uk * uK

    osc = theorems._osc(k, K)
    A = integrate_radial(curl_side, a, rel_tol, osc_scale=osc).value
    B = integrate_radial(_reference_integrand(1, l, k, K), a, rel_tol, osc_scale=osc).value
    return abs(A - ll1 * ll1 * B) / max(abs(A), abs(ll1 * ll1 * B), 1e-300)


def _fd_oracle_bundles(seed, n):
    """Seeded (l, k, a, mu_omega, K_near) in the shape of the fd_oracle bundles."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        l = 1 + i % 6
        k = (1.0 if i % 2 == 0 else -1.0) * float(rng.uniform(0.5, 2.0))
        a = float(rng.uniform(1.0, math.pi))
        mw = float(rng.uniform(0.5, 1.0))
        K_near = abs(k) * (1.0 + float(rng.choice([1.0, -1.0]) * rng.uniform(1e-3, 2e-2)))
        yield l, k, a, mw, K_near


# expansion_fd's default, and the CLI's quad_rel_tol / 10 at the default quad_rel_tol
_ORACLE_TOLS = (1e-13, 1e-12 / 10.0, 1e-12)


class TestLockstepOracleBitIdentical:
    """The lockstep batches give every oracle value of the one-at-a-time route, to the bit."""

    @pytest.mark.parametrize("rel_tol", _ORACLE_TOLS)
    def test_expansion_fd(self, rel_tol):
        for l, k, a, mw, _ in _fd_oracle_bundles(7, 12):
            for j in (1, 2):
                assert theorems.expansion_fd(j, l, k, a, mw, rel_tol) == reference_expansion_fd(j, l, k, a, mw, rel_tol)

    @pytest.mark.parametrize("rel_tol", _ORACLE_TOLS)
    def test_series_integrals_j1(self, rel_tol):
        for l, k, a, mw, _ in _fd_oracle_bundles(11, 12):
            got = theorems.series_integrals_j1(l, k, a, mw, rel_tol)
            assert got == reference_series_integrals_j1(l, k, a, mw, rel_tol)

    @pytest.mark.parametrize("rel_tol", _ORACLE_TOLS)
    def test_curl_identity_check(self, rel_tol):
        for l, k, a, _, K_near in _fd_oracle_bundles(22, 12):
            for K in (K_near, k, abs(k)):
                assert theorems.curl_identity_check(l, k, K, a, rel_tol) == reference_curl_identity_check(l, k, K, a, rel_tol)

    @pytest.mark.parametrize("rel_tol", _ORACLE_TOLS)
    def test_radial_integrals_quadrature(self, rel_tol):
        for l, k, a, _, K_near in _fd_oracle_bundles(5, 12):
            for j in (1, 2):
                for K in (K_near, k, abs(k)):
                    if j == 2:
                        n_k, n_K = specfun.lommel_first(l, k, a), specfun.lommel_first(l, K, a)
                    else:
                        n_k = _reference_quadrature(1, l, abs(k), abs(k), a, rel_tol)
                        n_K = _reference_quadrature(1, l, abs(K), abs(K), a, rel_tol)
                    m = _reference_quadrature(j, l, k, K, a, rel_tol)
                    got = theorems.radial_integrals_quadrature(Mode(j, l), k, K, a, rel_tol)
                    assert got == model.RadialIntegrals(n_k, n_K, m)

    def test_expansion_j2_shares_its_bessel_values(self):
        # f0 reads the closed-form cell's triple: 1 / N_2(|k|) of the cell
        for l, k, a, mw, _ in _fd_oracle_bundles(3, 12):
            assert theorems.expansion_j2(l, k, a, mw).f0 == 1.0 / specfun.lommel_first(l, k, a)


class TestOracleAgainstMpmath:
    """The quadrature oracle itself against Lommel's forms in mpmath (``tests/mp_lommel.py``)."""

    def test_radial_integrals_quadrature(self):
        # fd_oracle-shaped (l, k, a) at expansion_fd's rel_tol, K 0.1-4 % off |k|
        # and at 0.5 |k| and 1.5 |k|; each of N_k, N_K and M within 1e-12 sqrt(N_k N_K)
        rng = np.random.default_rng(64)
        for l, k, a, _, _ in _fd_oracle_bundles(17, 24):
            near = abs(k) * (1.0 + float(rng.choice([1.0, -1.0]) * np.exp(rng.uniform(math.log(1e-3), math.log(4e-2)))))
            for K in (near, 0.5 * abs(k), 1.5 * abs(k)):
                for j in (1, 2):
                    got = theorems.radial_integrals_quadrature(Mode(j, l), k, K, a, 1e-13)
                    want = mp_lommel.mode_integrals(j, l, k, K, a)
                    bound = 1e-12 * math.sqrt(want[0] * want[1])
                    for value, exact in zip((got.n_self_k, got.n_self_K, got.m_cross), want):
                        assert abs(value - exact) <= bound, (j, l, k, K, a)


class TestTableBuildsPerRound:
    """Each lockstep round builds one Bessel table per order for all integrals of a theorem call."""

    @staticmethod
    def _count(monkeypatch, call):
        tables, rounds = [], []
        table, eval_panels = specfun._jl_table, quadrature._eval_panels

        def counted_table(top, x):
            tables.append(top)
            return table(top, x)

        def counted_round(f, owner, lo, hi):
            rounds.append(len(set(owner.tolist())))   # the integrals of the round
            return eval_panels(f, owner, lo, hi)

        with monkeypatch.context() as patch:
            patch.setattr(specfun, "_jl_table", counted_table)
            patch.setattr(quadrature, "_eval_panels", counted_round)
            call()
        return tables, rounds

    def _check(self, monkeypatch, call, batch, orders, extra, expected):
        tables, rounds = self._count(monkeypatch, call)
        assert rounds[0] == batch  # every integral in one batch
        assert sorted(tables) == sorted(orders * len(rounds) + extra)  # one table per round and order
        assert (len(tables), len(rounds)) == expected
        assert self._count(monkeypatch, call) == (tables, rounds)  # repeats exactly

    def test_expansion_fd_j1(self, monkeypatch):
        # N_1(K) and M_1(k, K) at ten steps, one integral at chi = 0; j_l and u_l from order l+1
        call = lambda: theorems.expansion_fd(1, 2, 1.9, 3.0, 0.9, 1e-14)
        self._check(monkeypatch, call, batch=21, orders=[3], extra=[], expected=(2, 2))

    def test_expansion_fd_j2(self, monkeypatch):
        # eleven cross integrals of order l; the eleven N_2(K) take the
        # closed-form cell of order l, not a table
        cells, closed_form = [], theorems._closed_form
        monkeypatch.setattr(theorems, "_closed_form", lambda *args: cells.append(args[:2]) or closed_form(*args))
        call = lambda: theorems.expansion_fd(2, 2, -1.9, 3.0, 0.9, 1e-14)
        self._check(monkeypatch, call, batch=11, orders=[2], extra=[], expected=(2, 2))
        assert cells == [(2, 2)] * 22   # eleven per call, and _check makes two

    @pytest.mark.parametrize("k,K,batch", [(1.9, 1.9, 1), (-1.9, -1.9, 1), (-1.9, 1.9, 2)])
    def test_radial_integrals_quadrature_j1(self, monkeypatch, k, K, batch):
        # each distinct integral once: N_1(|k|) = N_1(|K|), and at K == k the
        # cross integral is that self integral; M_1(-|k|, |k|) is its own
        call = lambda: theorems.radial_integrals_quadrature(Mode(1, 2), k, K, 3.0, 1e-14)
        self._check(monkeypatch, call, batch=batch, orders=[3], extra=[], expected=(2, 2))

    def test_series_integrals_j1(self, monkeypatch):
        # one table of top l+1 per round for orders l-1, l and l+1 at |k| r;
        # d1 finishes a round before the others
        call = lambda: theorems.series_integrals_j1(2, -1.9, 3.0, 0.9, 1e-14)
        self._check(monkeypatch, call, batch=4, orders=[3], extra=[], expected=(2, 2))

    def test_rounds_of_the_fd_oracle_bundles(self, monkeypatch):
        # the four oracle calls of 12 fd_oracle-shaped bundles, at their
        # default tolerances: with the first panels as wide as pi over an
        # integrand's highest wavenumber, most batches converge in their first round
        calls = {
            "f1_vanishing_check": lambda l, k, a, mw, K_near: theorems.f1_vanishing_check(l, k, a, mw),
            "expansion_fd_j1": lambda l, k, a, mw, K_near: theorems.expansion_fd(1, l, k, a, mw),
            "expansion_fd_j2": lambda l, k, a, mw, K_near: theorems.expansion_fd(2, l, k, a, mw),
            "curl_identity_check": lambda l, k, a, mw, K_near: theorems.curl_identity_check(l, k, K_near, a),
        }
        rounds = {}
        for name, call in calls.items():
            _, rounds[name] = self._count(monkeypatch, lambda: [call(*bundle) for bundle in _fd_oracle_bundles(1, 12)])
        counts = {name: len(each) for name, each in rounds.items()}
        assert counts == {"f1_vanishing_check": 13, "expansion_fd_j1": 12, "expansion_fd_j2": 15, "curl_identity_check": 12}
        assert sum(counts.values()) == 52


class TestFlatRound:
    """The integrands of a round, evaluated once on its flat node array, equal the per-pair formulas to the bit."""

    # an uneven round: integrals 0, 3 and 7 of eight, with 30, 15 and 60 nodes
    ACTIVE = [0, 3, 7]

    @staticmethod
    def _points(seed, sizes):
        rng = np.random.default_rng(seed)
        points = [rng.uniform(0.0, 3.0, n) for n in sizes]
        points[0][0] = 1e-4   # a series-regime argument
        return points

    @staticmethod
    def _round(active, points):
        """(owner, r) of a round whose integrals active[n] have the nodes points[n]."""
        return np.repeat(active, [r.size for r in points]), np.concatenate(points)

    @pytest.mark.parametrize("l", [1, 2, 6])
    @pytest.mark.parametrize("j", [1, 2])
    def test_mode_integrand(self, j, l):
        # integral 3 is a self pair, integral 7 has k < 0 < K; the others are never evaluated
        pairs = [(0.7, 0.71)] + [(9.0, 9.5)] * 2 + [(1.9, 1.9)] + [(9.0, 9.5)] * 3 + [(-1.3, 2.4)]
        points = self._points(40 + l, (30, 15, 60))
        owner, flat = self._round(self.ACTIVE, points)
        got = theorems._mode_integrand(Mode(j, l), pairs)(owner, flat)
        assert got.shape == flat.shape
        ll1 = l * (l + 1)
        for i, r in zip(self.ACTIVE, points):
            values = got[owner == i]
            k, K = pairs[i]
            if j == 2:
                want = r * r * specfun.bessel_j(l, k * r) * specfun.bessel_j(l, K * r)
            else:
                (jk, uk), (jK, uK) = specfun.bessel_j_and_u(l, k * r), specfun.bessel_j_and_u(l, K * r)
                want = jk * jK + k * K * r * r * uk * uK / ll1
            assert np.array_equal(values, want), (j, l, i)

    @pytest.mark.parametrize("k,K", [(-1.3, 1.31), (1.9, 1.9)])
    def test_curl_sides(self, monkeypatch, k, K):
        # the kernel side B alone, then both sides; the curl side A is
        # (l(l+1))^2 j_k j_K + l(l+1) k K r^2 u_k u_K
        l, ll1 = 3, 12
        captured, batch = [], theorems.integrate_radial_batch
        monkeypatch.setattr(theorems, "integrate_radial_batch",
                            lambda f, *args, **kwargs: captured.append(f) or batch(f, *args, **kwargs))
        theorems.curl_identity_check(l, k, K, 2.0)
        (sides,) = captured
        r_a, r_b = self._points(50, (45, 30))
        b_only = sides(*self._round([1], [r_b]))
        a_side, b_side = np.split(sides(*self._round([0, 1], [r_a, r_b])), [r_a.size])

        def kernels(r):
            return specfun.bessel_j_and_u(l, k * r) + specfun.bessel_j_and_u(l, K * r)

        jk, uk, jK, uK = kernels(r_b)
        want_b = jk * jK + k * K * r_b * r_b * uk * uK / ll1
        assert np.array_equal(b_only, want_b) and np.array_equal(b_side, want_b)
        jk, uk, jK, uK = kernels(r_a)
        assert np.array_equal(a_side, ll1 * ll1 * jk * jK + ll1 * k * K * r_a * r_a * uk * uK)

    @pytest.mark.parametrize("l", [1, 2, 6])
    @pytest.mark.parametrize("k", [1.3, -1.3])
    def test_series_integrands(self, monkeypatch, k, l):
        # an uneven round of integrals 0, 2 and 3 of the four (c0, c1, d0, d1),
        # then c1 alone; each formula reads j_(l-1), j_l and j_(l+1) from one
        # table of top l+1, at |k| r and at k r
        mw = 0.9
        captured, batch = [], theorems.integrate_radial_batch
        monkeypatch.setattr(theorems, "integrate_radial_batch",
                            lambda f, *args, **kwargs: captured.append(f) or batch(f, *args, **kwargs))
        theorems.series_integrals_j1(l, k, 2.0, mw)
        (integrands,) = captured
        ak, k2, ll1, two_l1_sq = abs(k), k * k, l * (l + 1), (2 * l + 1) ** 2
        pref_d0, pref_d1 = k ** (2 - l) * ak**l, k ** (-l - 2) * ak**l

        def want(i, r):
            jm, j, jp = _neighbor_rows(l, ak * r)
            jm_s, j_s, jp_s = _neighbor_rows(l, k * r)
            r2 = r * r
            if i == 0:
                return (k2 * (l + 1) ** 2 * r2 * jm * jm - 2.0 * k2 * ll1 * r2 * jm * jp
                        + l * (k2 * l * r2 * jp * jp + (l + 1) * two_l1_sq * j * j)) / (ll1 * two_l1_sq)
            if i == 1:
                return -(mw / (ll1 * k2)) * j * (
                    (l + 1) * (-k2 * r2 + 2 * l * l + l) * j + r * ak * (k2 * r2 - 2 * l * l - 2 * l) * jp)
            if i == 2:
                comb = (l + 1) * jm_s - l * jp_s
                return r * r * pref_d0 * comb * comb / (ll1 * two_l1_sq) + j_s * j
            return -(mw * pref_d1 / (2.0 * ll1)) * j_s * (
                (l + 1) * (-k2 * r2 + 2 * l * l + l) * j_s + k * r * (k2 * r2 - 2 * l * l - 2 * l) * jp_s)

        for active, sizes in (([0, 2, 3], (30, 45, 15)), ([1], (30,))):
            points = self._points(60 + l + len(active), sizes)
            owner, flat = self._round(active, points)
            got = integrands(owner, flat)
            assert got.shape == flat.shape
            for i, r in zip(active, points):
                assert np.array_equal(got[owner == i], want(i, r)), (k, l, i)
