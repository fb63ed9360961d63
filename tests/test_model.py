"""Substrate classification, tuned wavenumbers, radial integrals, energies."""

import itertools
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import spherical_jn

import mp_lommel
from tunedsource import cli, model, quadrature, scalar, specfun, theorems, tuning
from tunedsource.errors import (
    ConvergenceError,
    DegenerateModeError,
    EvanescentRegimeError,
    IllConditionedExpansionError,
    IncompleteSourceSpecError,
    InvalidInputError,
    TunedSourceError,
    UnderflowError,
    UnsupportedMediumError,
)
from tunedsource.model import Mode, SourceSpec, Substrate
from tunedsource.quadrature import integrate_radial

SRC = str(Path(model.__file__).resolve().parents[1])


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

    @pytest.mark.parametrize("k,mw,chi", [(1e200, 1.0, -1e200), (1e200, 1.0, 0.0), (1e200, 1e200, 1e200)])
    def test_overflowing_K_rejected(self, k, mw, chi):
        # K came back inf (or nan), and the cell then blamed a "K=inf" the caller never passed
        with pytest.raises(InvalidInputError, match="overflows"):
            model.tuned_wavenumber(k, mw, chi)
        with pytest.raises(InvalidInputError, match="overflows"):
            theorems.boundedness_margin(Mode(2, 1), k, chi, mw, 1.0)
        with pytest.raises(InvalidInputError, match="overflows"):
            model.minimality_margin(Mode(2, 1), k, chi, 0.0, mw, 1.0)

    @pytest.mark.parametrize("mw", [0.0, -0.0, math.inf, math.nan])
    def test_zero_or_nonfinite_mu_omega_rejected(self, mw):
        # mu_omega = 0 gave K = |k| at every chi, so both margins read 0.0, as at chi = 0
        with pytest.raises(InvalidInputError, match="mu_omega"):
            model.tuned_wavenumber(2.0, mw, 0.5)
        with pytest.raises(InvalidInputError, match="mu_omega"):
            theorems.boundedness_margin(Mode(2, 1), 1.0, 0.5, mw, 1.0)
        with pytest.raises(InvalidInputError, match="mu_omega"):
            model.minimality_margin(Mode(2, 1), 1.0, 0.5, 0.0, mw, 1.0)


# every public entry point with valid arguments; each int or float argument, and the last entry of a list
# argument, is a numeric argument that the table-driven tests below replace
_ENTRY_POINTS = [
    (Mode, (1, 2, 1), {}),
    (Substrate, (1.0, 1.0, 1.0, 2.0), {}),
    (model.tuned_wavenumber, (2.0, 1.0, 0.5), {}),
    (model.radial_integrals, (Mode(1, 2), 1.0, 1.5, 2.0, 1e-12), {}),
    (model.mode_ratio, (Mode(1, 2), 1.0, 1.5, 2.0, 1e-12), {}),
    (theorems.boundedness_margin, (Mode(2, 1), 1.0, 0.1, 1.0, 2.0, 1e-12), {}),
    (model.minimality_margin, (Mode(2, 1), 1.0, 0.1, 0.0, 1.0, 2.0, 1e-12), {}),
    (specfun.bessel_j, (2, 0.7), {}),
    (specfun.bessel_j_prime, (2, 0.7), {}),
    (specfun.bessel_u, (2, 0.7), {}),
    (specfun.bessel_j_and_u, (2, 0.7), {}),
    (specfun.lommel_first, (2, 1.3, 2.0), {}),
    (specfun.lommel_second, (2, 1.3, 0.8, 2.0), {}),
    (integrate_radial, (np.sin, 2.0, 1e-10), {"osc_scale": 1.0, "max_panels": 64}),
    (quadrature.integrate_radial_batch, (lambda owner, r: np.sin(r), 2.0, 1e-10),
     {"osc_scales": [1.0, 2.0], "max_panels": 64}),
    (tuning.find_constraint_roots, (math.sin, -1.0, 1.0, 5, 1e-9), {"k": 2.0, "mu_omega": 1.0}),
    (theorems.default_chi_grid, (1.0, 1.0, 5, 0.5), {}),
    (theorems.expansion_j2, (2, 1.0, 2.0, 1.0), {}),
    (theorems.expansion_fd, (2, 2, 1.0, 2.0, 1.0, 1e-10), {}),
    (theorems.series_integrals_j1, (2, 1.0, 2.0, 1.0, 1e-10), {}),
    (theorems.f1_vanishing_check, (2, 1.0, 2.0, 1.0, 1e-8, 1e-10), {}),
    (theorems.curl_identity_check, (2, 1.0, 1.5, 2.0, 1e-10), {}),
]


def _numeric(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _with_each_numeric_replaced(args, kwargs, value, numeric=_numeric):
    """(args, kwargs, where) once for each ``numeric`` argument, that argument replaced by ``value``."""
    for i, arg in enumerate(args):
        if numeric(arg):
            yield args[:i] + (value,) + args[i + 1:], kwargs, i
    for key, arg in kwargs.items():
        if isinstance(arg, list):
            if numeric(arg[-1]):
                yield args, {**kwargs, key: arg[:-1] + [value]}, key
        elif numeric(arg):
            yield args, {**kwargs, key: value}, key


def _assert_each_numeric_rejected(value, numeric=_numeric):
    for func, args, kwargs in _ENTRY_POINTS:
        for bad_args, bad_kwargs, where in _with_each_numeric_replaced(args, kwargs, value, numeric):
            with pytest.raises(InvalidInputError):
                pytest.fail(f"{func.__name__} returned {func(*bad_args, **bad_kwargs)!r} with {value!r} at {where}")


@pytest.mark.parametrize("bad", [True, "1", 1j, None])
class TestNonRealInputsRejected:
    """k, K, a, mu_omega, chi and tolerances take ``scalar._real``'s rule, as quadrature does: a real number, not a bool."""

    def test_tuned_wavenumber(self, bad):
        # True computed as 1, and chi=True raised EvanescentRegimeError
        for args in ((bad, 1.0, 0.1), (1.0, bad, 0.1), (1.0, 1.0, bad)):
            with pytest.raises(InvalidInputError, match="must be a real number"):
                model.tuned_wavenumber(*args)

    def test_cell(self, bad):
        # a string or complex K raised a bare TypeError
        for k, K, a in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
            for route in (model.radial_integrals, model.mode_ratio, theorems.radial_integrals_quadrature):
                with pytest.raises(InvalidInputError, match="must be a real number"):
                    route(Mode(1, 2), k, K, a)

    def test_margins(self, bad):
        # a=True computed with a = 1
        for args in ((0.5, 1.0, bad), (bad, 1.0, 1.0)):
            with pytest.raises(InvalidInputError, match="must be a real number"):
                theorems.boundedness_margin(Mode(2, 1), 1.0, *args)
        with pytest.raises(InvalidInputError, match="must be a real number"):
            model.minimality_margin(Mode(2, 1), 1.0, 0.5, 0.0, 1.0, bad)

    def test_tolerances(self, bad):
        # "1e-12", None and 1j raised a bare TypeError
        for route in (model.radial_integrals, model.mode_ratio):
            with pytest.raises(InvalidInputError, match="rel_tol must be a real number"):
                route(Mode(2, 1), 1.0, 2.0, 1.0, rel_tol=bad)
        with pytest.raises(InvalidInputError, match="rel_tol must be a real number"):
            integrate_radial(lambda r: r, 1.0, bad)
        with pytest.raises(InvalidInputError, match="rel_tol must be a real number"):
            theorems.expansion_fd(2, 1, 1.0, 1.0, 1.0, rel_tol=bad)

    def test_expansion_and_chi_grid(self, bad):
        # expansion_j2(2, True, 1.0, 1.0) and default_chi_grid(True, 1.0) computed with k = 1;
        # a span of "1" or None raised a bare TypeError
        for k, a, mw in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
            with pytest.raises(InvalidInputError, match="must be a real number"):
                theorems.expansion_j2(2, k, a, mw)
        for k, mw, span in ((bad, 1.0, 0.9), (1.0, bad, 0.9), (1.0, 1.0, bad)):
            with pytest.raises(InvalidInputError, match="must be a real number"):
                theorems.default_chi_grid(k, mw, 21, span)

    def test_constraint_roots(self, bad):
        # lo=False and tol=True searched [0, 1] with tol = 1
        for lo, hi, tol in ((bad, 1.0, 1e-8), (-1.0, bad, 1e-8), (-1.0, 1.0, bad)):
            with pytest.raises(InvalidInputError, match="must be a real number"):
                tuning.find_constraint_roots(lambda c: c, lo, hi, 5, tol)

    def test_every_entry_point(self, bad):
        # True computed as 1 in specfun's kernels and "1" as 1.0, 1j raised a bare TypeError there;
        # find_constraint_roots(..., k="1") raised one too
        _assert_each_numeric_rejected(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_every_entry_point_rejects_nonfinite_numbers(bad):
    # every numeric argument of the entry points needs a finite value; an integer one is not an integer
    _assert_each_numeric_rejected(bad)


def test_every_entry_point_rejects_integers_past_the_float_range():
    # float(10**400) raised OverflowError in every real argument; an integer
    # argument (an order, a count) takes it as the integer it is
    _assert_each_numeric_rejected(10**400, numeric=lambda arg: type(arg) is float)
    with pytest.raises(InvalidInputError, match="too large for a float"):
        model.tuned_wavenumber(-10**5000, 1.0, 0.0)    # past 4300 digits an int has no str


@pytest.mark.parametrize("huge", [2**63 + 1, 10**400 + 1, 10**5000 + 1], ids=["2**63+1", "10**400+1", "10**5000+1"])
def test_every_entry_point_rejects_integers_no_index_holds(huge):
    # an order or a count past sys.maxsize: find_constraint_roots raised OverflowError at 10**400, a chi grid
    # of 10**400 + 1 points did in numpy, and past 4300 digits the messages' repr raised ValueError
    _assert_each_numeric_rejected(huge, numeric=lambda arg: type(arg) is int)


def test_every_entry_point_accepts_numpy_scalars():
    # numpy integers as orders, modes, grid_n and max_panels, numpy floats as reals: the plain call's result
    def as_numpy(value):
        if isinstance(value, list):
            return [as_numpy(v) for v in value]
        if _numeric(value):
            return np.int64(value) if isinstance(value, int) else np.float64(value)
        return value

    for func, args, kwargs in _ENTRY_POINTS:
        want = func(*args, **kwargs)
        got = func(*map(as_numpy, args), **{key: as_numpy(v) for key, v in kwargs.items()})
        assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want, func.__name__


def test_numpy_and_int_reals_accepted():
    t = model.tuned_wavenumber(np.float64(2.0), np.int64(1), np.float32(0.5))
    assert t.K == model.tuned_wavenumber(2.0, 1.0, 0.5).K
    for j in (1, 2):
        want = model.radial_integrals(Mode(j, 3), 2.0, 1.5, 1.0)
        assert model.radial_integrals(Mode(j, 3), 2, np.float64(1.5), np.int64(1)) == want


# the closed-form cell's entry points as calls of (a, rel_tol) on floats, which take the input rules' one
# fast test; the specfun views take no tolerance
_CELL_TOL_ROUTES = {
    "radial_integrals": lambda a, tol: model.radial_integrals(Mode(1, 2), 1.0, 1.5, a, tol),
    "mode_ratio": lambda a, tol: model.mode_ratio(Mode(1, 2), 1.0, 1.5, a, tol),
    "minimality_margin": lambda a, tol: model.minimality_margin(Mode(2, 1), 1.0, 0.1, 0.0, 1.0, a, tol),
    "boundedness_margin": lambda a, tol: theorems.boundedness_margin(Mode(2, 1), 1.0, 0.1, 1.0, a, tol),
}
_CELL_ROUTES = {
    **_CELL_TOL_ROUTES,
    "lommel_first": lambda a, tol: specfun.lommel_first(2, 1.3, a),
    "lommel_second": lambda a, tol: specfun.lommel_second(2, 1.3, 0.8, a),
}
_FIRST_OVERFLOWING_A = math.nextafter(scalar.A_MAX, math.inf)
# every route that evaluates or integrates a cell, as a call of (k, a); at a = 1e10 the first k past the last
# finite k a raised ValueError (the first four), OverflowError (the three oracle routes) or, from expansion_j2's
# own copy of the rule, InvalidInputError
_KA_ROUTES = {
    "radial_integrals": lambda k, a: model.radial_integrals(Mode(1, 2), k, 1.5, a),
    "mode_ratio": lambda k, a: model.mode_ratio(Mode(1, 2), k, 1.5, a),
    "lommel_first": lambda k, a: specfun.lommel_first(2, k, a),
    "lommel_second": lambda k, a: specfun.lommel_second(2, k, 0.8, a),
    "radial_integrals_quadrature": lambda k, a: theorems.radial_integrals_quadrature(Mode(1, 2), k, 1.5, a),
    "curl_identity_check": lambda k, a: theorems.curl_identity_check(2, k, 1.5, a),
    "series_integrals_j1": lambda k, a: theorems.series_integrals_j1(2, k, a, 1.0),
    "expansion_j2": lambda k, a: theorems.expansion_j2(2, k, a, 1.0),
}
_KA_RADIUS = 1e10
_FIRST_OVERFLOWING_K = math.nextafter(sys.float_info.max / _KA_RADIUS, math.inf)
_FIRST_OVERFLOWING_SQUARE = math.nextafter(math.sqrt(sys.float_info.max), math.inf)


@pytest.mark.parametrize("route", sorted(_CELL_TOL_ROUTES))
@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, 1e-15, 2e-3])
def test_cell_rejects_out_of_range_float_tolerances(route, tol):
    # a float that fails the fast test reaches validate_tol, whose message it keeps
    with pytest.raises(InvalidInputError, match=f"^{re.escape(f'rel_tol must lie in [1e-14, 1e-3], got {tol}')}$"):
        _CELL_TOL_ROUTES[route](2.0, tol)


@pytest.mark.parametrize("route", sorted(_CELL_ROUTES))
@pytest.mark.parametrize("a", [0.0, -1.0, _FIRST_OVERFLOWING_A])
def test_cell_rejects_out_of_range_float_radii(route, a):
    rule = "> 0" if a <= 0.0 else f"<= {scalar.A_MAX}, past which a**3 overflows"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(f'radius a must be {rule}, got {a}')}$"):
        _CELL_ROUTES[route](a, 1e-12)


class TestRadiusLimit:
    """A radius whose cube overflows raised a bare OverflowError from a**3; the cell's input rule rejects it."""

    def test_limit_is_the_largest_double_with_a_finite_cube(self):
        assert math.isfinite(scalar.A_MAX**3)
        with pytest.raises(OverflowError):
            _FIRST_OVERFLOWING_A**3

    def test_last_good_radius_gives_finite_values(self):
        for route in _CELL_ROUTES.values():
            value = route(scalar.A_MAX, 1e-12)
            numbers = [value] if isinstance(value, float) else [v for v in value if isinstance(v, float)]
            assert numbers and all(math.isfinite(v) for v in numbers), value
        assert math.isfinite(theorems.expansion_j2(2, 1.0, scalar.A_MAX, 1.0).f0)

    def test_first_bad_radius_rejected_off_the_cell(self):
        # expansion_j2 raised OverflowError from a**3; the quadrature routes integrated over [0, a]
        # and gave up with a ConvergenceError
        for route in (lambda a: theorems.expansion_j2(2, 1.0, a, 1.0),
                      lambda a: theorems.radial_integrals_quadrature(Mode(2, 1), 1.0, 1.2, a),
                      lambda a: theorems.curl_identity_check(2, 1.0, 1.2, a)):
            with pytest.raises(InvalidInputError, match="past which a\\*\\*3 overflows"):
                route(_FIRST_OVERFLOWING_A)

    def test_first_k_is_the_first_whose_product_overflows(self):
        assert math.isfinite(math.nextafter(_FIRST_OVERFLOWING_K, 0.0) * _KA_RADIUS)
        assert _FIRST_OVERFLOWING_K * _KA_RADIUS == math.inf

    @pytest.mark.parametrize("route", sorted(_KA_ROUTES))
    def test_infinite_k_a_rejected_by_every_route(self, route):
        want = f"k a and K a must be finite, got k={_FIRST_OVERFLOWING_K}, K="
        with pytest.raises(InvalidInputError, match=f"^{re.escape(want)}"):
            _KA_ROUTES[route](_FIRST_OVERFLOWING_K, _KA_RADIUS)

    def test_first_k_is_the_first_whose_square_overflows(self):
        last = math.nextafter(_FIRST_OVERFLOWING_SQUARE, 0.0)
        assert math.isfinite(last * last)
        assert _FIRST_OVERFLOWING_SQUARE * _FIRST_OVERFLOWING_SQUARE == math.inf

    @pytest.mark.parametrize("route", sorted(_KA_ROUTES))
    def test_infinite_k_squared_rejected_by_every_route(self, route):
        # at a = 1, k a is finite
        want = f"k^2 and K^2 must be finite, got k={_FIRST_OVERFLOWING_SQUARE}, K="
        with pytest.raises(InvalidInputError, match=f"^{re.escape(want)}"):
            _KA_ROUTES[route](_FIRST_OVERFLOWING_SQUARE, 1.0)

    @pytest.mark.parametrize("k,K,a", [(1.0, 1.79e298, 1e10), (1.0, 1.35e154, 1.0), (sys.float_info.max / 1e10, 1.5, 1e10)])
    def test_j1_cell_where_a_square_overflows(self, k, K, a):
        # K K or k k in the j = 1 reduction overflowed: (2.5e9, nan, nan), (0.091, inf, nan) and a nan n_self_k
        with pytest.raises(InvalidInputError, match=f"^{re.escape(f'k^2 and K^2 must be finite, got k={k}, K={K}')}$"):
            model.radial_integrals(Mode(1, 1), k, K, a)

    @pytest.mark.parametrize("route", ["radial_integrals_quadrature", "curl_identity_check", "series_integrals_j1"])
    def test_oracle_at_the_last_finite_k_a(self, route):
        # numpy's "overflow encountered in multiply" escaped, which the suite turns into an error
        k = sys.float_info.max / _KA_RADIUS
        with pytest.raises(InvalidInputError, match=f"^{re.escape(f'k^2 and K^2 must be finite, got k={k}, K=')}"):
            _KA_ROUTES[route](k, _KA_RADIUS)

    def test_expansion_self_integral_underflowing_to_zero(self):
        # k a = 1 but a**3 = 1e-330 underflows N_2 to 0: f0 = 1 / N_2 raised ZeroDivisionError
        with pytest.raises(IllConditionedExpansionError, match="N_2"):
            theorems.expansion_j2(1, 1e110, 1e-110, 1.0)

    @pytest.mark.parametrize("a", [0.0, -1.0, _FIRST_OVERFLOWING_A])
    def test_substrate_takes_the_cells_radius_rule(self, a):
        # Substrate checked a > 0 with its own message and took a radius past A_MAX, which every cell rejects
        with pytest.raises(InvalidInputError) as cell:
            model.radial_integrals(Mode(2, 1), 1.0, 1.0, a)
        with pytest.raises(InvalidInputError) as substrate:
            Substrate(epsilon_r=1.0, mu_r=1.0, omega=1.0, a=a)
        assert str(substrate.value) == str(cell.value)

    def test_substrate_takes_the_cells_k_a_rule(self):
        # both were accepted, with k a = inf, and with k = inf where epsilon_r mu_r overflows
        with pytest.raises(InvalidInputError, match="k a and K a must be finite"):
            Substrate(epsilon_r=1.0, mu_r=1.0, omega=_FIRST_OVERFLOWING_K, a=_KA_RADIUS)
        with pytest.raises(InvalidInputError, match="^k must be finite, got inf$"):
            Substrate(epsilon_r=1e200, mu_r=1e200, omega=1.0, a=1.0)

    def test_substrate_checks_the_medium_before_the_radius(self):
        with pytest.raises(UnsupportedMediumError):
            Substrate(epsilon_r=-1.0, mu_r=1.0, omega=1.0, a=_FIRST_OVERFLOWING_A)


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

        for builder in ("_jl_column", "_jl_triple"):
            monkeypatch.setattr(scalar, builder, no_table)
        monkeypatch.setattr(model, "_jl_triple", no_table)    # the name the cell calls
        monkeypatch.setattr(specfun, "_jl_table", no_table)
        for k, K, a in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
            for route in (model.radial_integrals, theorems.radial_integrals_quadrature, model.mode_ratio):
                with pytest.raises(InvalidInputError):
                    route(Mode(j, 2), k, K, a)


# criterion 03's grid of boundedness cells, evaluated in draw order or in a
# shuffled order (argv[1]); prints the cell count and a digest of the reprs in draw order
_MEMO_ORDER_PROBE = """
import hashlib, itertools, math, random, sys
from tunedsource import theorems
from tunedsource.model import Mode
cells = [(Mode(j, l), k, float(chi), mw, a)
         for j, l, k, a, mw in itertools.product(
             (1, 2), range(1, 7), (0.5, 1.0, 2.0, 5.0, -0.5, -1.0, -2.0, -5.0),
             (0.5, 1.0, math.pi, 5.0), (0.5, 1.0, 2.0))
         for chi in theorems.default_chi_grid(k, mw)]
order = list(range(len(cells)))
if sys.argv[1] == "shuffled":
    random.Random(3).shuffle(order)
reprs = {i: repr(theorems.boundedness_margin(*cells[i])) for i in order}
print(len(cells), hashlib.sha256("\\n".join(reprs[i] for i in range(len(cells))).encode()).hexdigest())
"""


def test_grid_is_independent_of_evaluation_order():
    # in draw order all but the first cell of each chi grid read the untuned triple from the memo;
    # shuffled, nearly every cell builds both triples.  Each order runs in a fresh process.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    outputs = [subprocess.run([sys.executable, "-c", _MEMO_ORDER_PROBE, order], capture_output=True, text=True,
                              env=env, timeout=300, check=True).stdout.split() for order in ("draw", "shuffled")]
    assert outputs[0][0] == "24192" and outputs[0] == outputs[1]


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
    @pytest.mark.parametrize("k", [1e-4, 5e-5, 3e-5])
    def test_underflowed_self_integral_keeps_lommel(self, j, k):
        # N_k underflows to 0, so the error estimate is inf; taking the series
        # there raised ConvergenceError (k = 1e-4) or gave M = 0.0
        ri = model.radial_integrals(Mode(j, 30), k, 1.0, 1.0)
        _, n_K, m = mp_lommel.mode_integrals(j, 30, k, 1.0, 1.0)
        assert ri.n_self_k == 0.0
        assert ri.n_self_K == pytest.approx(n_K, rel=1e-14)
        assert ri.m_cross == pytest.approx(m, rel=1e-14)

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
        series = model._lommel_second_series

        def spy(*args):
            series_calls.append(args)
            return series(*args)

        monkeypatch.setattr(quadrature, "integrate_radial_batch", lambda *args, **kw: quadrature_calls.append(1))
        monkeypatch.setattr(model, "_lommel_second_series", spy)    # the name the cell calls
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
                *_, err = model._closed_form(j, l, abs(k), K, 1.0, rel_tol)
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
        scale = ri.n_self_k * ri.n_self_K
        assert scale - ri.m_cross * ri.m_cross >= -1e-12 * scale

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


# ---------------------------------------------------------------------------
# the float evaluator: the chain it replaced, kept as a bit-level reference


def reference_integrals(j, l, k, K, a, rel_tol=1e-12):
    """(N_j(k), N_j(K), M_j(k, K)) as the record-building cell computed them, from unmemoized columns."""
    ak, aK = abs(k), abs(K)
    jm_k, j_k, jp_k = scalar._jl_column(l + 1, ak * a)[l - 1:]
    jm_K, j_K, jp_K = scalar._jl_column(l + 1, aK * a)[l - 1:]
    n_k = 0.5 * a**3 * (j_k * j_k - jp_k * jm_k)
    n_K = 0.5 * a**3 * (j_K * j_K - jp_K * jm_K)
    m, err = (0.0, 0.0) if ak == aK else scalar._lommel_second_from(a, ak, aK, j_k, jp_k, j_K, jp_K)
    if j == 1:
        u_k, u_K = scalar._u_from_neighbors(l, jm_k, jp_k), scalar._u_from_neighbors(l, jm_K, jp_K)
        if ak != aK:
            err = (aK * aK * err + scalar._EPS * (abs(aK * aK * m) + abs(a * a * aK * j_k * u_K))) / (l * (l + 1))
        n_k = (ak * ak * n_k + a * a * ak * j_k * u_k) / (l * (l + 1))
        n_K = (aK * aK * n_K + a * a * aK * j_K * u_K) / (l * (l + 1))
    scale = math.sqrt(n_k) * math.sqrt(n_K)
    err = err / scale if scale > 0.0 else math.inf
    if rel_tol < err < math.inf:
        m = scalar._lommel_second_series(l, a, ak * a, aK * a, jm_k, j_k, jp_k)
    if j == 1 and ak != aK:
        m = (aK * aK * m + a * a * aK * j_k * u_K) / (l * (l + 1))
    if ak == aK:
        m = n_k
    return n_k, n_K, -m if l % 2 == 1 and (k < 0.0) != (K < 0.0) else m


def _criterion_03_sample(per_group=60, seed=17):
    """Seeded cells (mode, k, chi, mu_omega, a) of criterion 03's grid, per_group for each j and each sign of k."""
    groups = {}
    for j, l, k, a, mw in itertools.product(
        (1, 2), range(1, 7), (0.5, 1.0, 2.0, 5.0, -0.5, -1.0, -2.0, -5.0), (0.5, 1.0, math.pi, 5.0), (0.5, 1.0, 2.0)
    ):
        for chi in theorems.default_chi_grid(k, mw):
            groups.setdefault((j, k < 0.0), []).append((Mode(j, l), k, float(chi), mw, a))
    rng = random.Random(seed)
    return [cell for key in sorted(groups) for cell in rng.sample(groups[key], per_group)]


def _hex(*values):
    return [v.hex() for v in values]


class TestOneEvaluator:
    """Every route through ``model._margin_cell`` keeps the bits of the record-building chain."""

    def test_routes_bit_identical_on_criterion_03_sample(self):
        cells = _criterion_03_sample()
        assert {(mode.j, k < 0.0) for mode, k, *_ in cells} == {(1, False), (1, True), (2, False), (2, True)}
        chi0 = 0.0
        for mode, k, chi, mw, a in cells:
            K = math.sqrt(k * k - chi * mw)
            n_k, n_K, m = reference_integrals(mode.j, mode.l, k, K, a)
            rep = theorems.boundedness_margin(mode, k, chi, mw, a)
            assert (rep.mode, rep.chi, rep.kind) == (mode, chi, theorems.BOUNDEDNESS)
            assert _hex(rep.margin, rep.scale) == _hex(n_k * n_K - m * m, n_k * n_K), (mode, k, chi, mw, a)
            ri = model.radial_integrals(mode, k, K, a)
            assert _hex(ri.n_self_k, ri.n_self_K, ri.m_cross) == _hex(n_k, n_K, m)
            ratio = model.mode_ratio(mode, k, K, a)
            assert ratio.hex() == (n_K / (m * m)).hex()
            _, n0_K, m0 = reference_integrals(mode.j, mode.l, k, abs(k), a)
            ratio0 = n0_K / (m0 * m0)
            min_rep = model.minimality_margin(mode, k, chi, chi0, mw, a)
            assert _hex(min_rep.margin, min_rep.scale) == _hex(ratio - ratio0, ratio0)

    def test_boundedness_cell_builds_one_record(self, monkeypatch):
        def no_record(*args, **kwargs):
            raise AssertionError("a record the caller does not get back")

        reports = []

        def counted_report(*args, **kwargs):
            reports.append(model.MarginReport(*args, **kwargs))
            return reports[-1]

        cells = _criterion_03_sample(per_group=5)
        want = [theorems.boundedness_margin(*cell) for cell in cells]
        monkeypatch.setattr(model, "TuningState", no_record)
        monkeypatch.setattr(model, "RadialIntegrals", no_record)
        monkeypatch.setattr(theorems, "MarginReport", counted_report)
        assert [theorems.boundedness_margin(*cell) for cell in cells] == want
        assert len(reports) == len(cells)


class TestUnderflow:
    """k^2, K^2 - k^2 or k a that underflows to 0 raises UnderflowError, which the CLI's row handler catches."""

    @pytest.mark.parametrize("j", [1, 2])
    def test_cross_integral(self, j):
        # a bare ZeroDivisionError from Lommel's 1 / (K^2 - k^2)
        for k, K, a in ((1e-170, 2e-170, 1.0), (1e-200, 2e-200, 1e-200)):
            with pytest.raises(UnderflowError, match="K\\^2 - k\\^2 underflows"):
                model.radial_integrals(Mode(j, 1), k, K, a)
            with pytest.raises(UnderflowError):
                model.mode_ratio(Mode(j, 1), k, K, a)
        assert cli._or_error(model.radial_integrals, Mode(j, 1), 1e-170, 2e-170, 1.0)["status"].startswith("error: ")

    def test_lommel_views(self):
        # lommel_first divided by k a = 0; lommel_second blamed K^2 = k^2 for squares that both underflowed
        with pytest.raises(UnderflowError, match="k a .* underflows"):
            specfun.lommel_first(0, 1e-200, 1e-200)
        with pytest.raises(UnderflowError, match="underflows"):
            specfun.lommel_second(0, 1e-200, 2e-200, 1e-200)
        with pytest.raises(UnderflowError, match="underflows"):
            specfun.lommel_second(1, 1e-170, 2e-170, 1.0)
        # order 0 at k a below 1 / sys.float_info.max, where j_(-1) = cos(k a) / (k a) overflows:
        # a math domain error (the first two) or nan (the third)
        for call in (lambda: specfun.lommel_first(0, 1e-309, 1.0), lambda: specfun.lommel_second(0, 5e-309, 1.0, 1.0),
                     lambda: specfun.lommel_first(0, 5e-324, 1.0)):
            with pytest.raises(UnderflowError, match="k a .* underflows"):
                call()
        assert abs(specfun.lommel_first(0, 1e-308, 1.0) - 1 / 3) <= 1e-15    # j_(-1) = 1e308 is finite
        assert issubclass(UnderflowError, TunedSourceError)

    @pytest.mark.parametrize("call", [
        lambda: model.tuned_wavenumber(1e-170, 1.0, 0.0),
        lambda: theorems.expansion_fd(1, 2, 1e-170, 1.0, 1.0),
        lambda: theorems.default_chi_grid(1e-170, 1.0),
        lambda: tuning.find_constraint_roots(lambda chi: chi, -1.0, 1.0, 11, 1e-12, k=1e-170, mu_omega=1.0),
    ], ids=["tuned_wavenumber", "expansion_fd", "default_chi_grid", "find_constraint_roots"])
    def test_tuning_whose_k_squared_underflows(self, call):
        # K^2 = k^2 - chi mu_omega = 0.0 at chi mu_omega <= 0 is no evanescent tuning: the true K^2 is >= k^2 > 0
        with pytest.raises(UnderflowError, match="k\\^2 underflows to 0 at k=1e-170"):
            call()

    def test_evanescent_tuning_at_tiny_k_keeps_its_error(self):
        # chi mu_omega > 0: the computed K^2 < 0 may be the true sign, so the tuning stays evanescent
        with pytest.raises(EvanescentRegimeError, match="K\\^2 = -1e-300 <= 0"):
            model.tuned_wavenumber(1e-170, 1.0, 1e-300)


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
            model, "_closed_form", lambda *args: (1.0, 1.0, 0.0, 0.0)
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
            model, "_closed_form", lambda *args: (1.0, 1.0, m_cross, 0.0)
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

    @pytest.mark.parametrize("key", [(1, 1, 0), "Mode(1, 1)", None])
    def test_non_mode_key_rejected(self, key):
        # the tuple (1, 1, 0) equals Mode(1, 1) but is not one
        with pytest.raises(InvalidInputError, match=f"^{re.escape(f'amplitude keys must be Mode instances, got {key!r}')}$"):
            SourceSpec({key: 1.0})

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
