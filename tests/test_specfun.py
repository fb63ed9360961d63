"""Bessel kernel and Lommel closed-form tests against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.special import spherical_jn

import mp_lommel
from tunedsource import scalar, specfun, theorems
from tunedsource.errors import InvalidInputError, SingularityError
from tunedsource.model import Mode
from tunedsource.quadrature import integrate_radial


def series_jl(l, x, terms=40):
    """Independent ascending-series oracle for j_l."""
    total = 0.0
    term = 1.0
    dfact = 1.0
    for n in range(1, 2 * l + 2, 2):
        dfact *= n
    for m in range(terms):
        if m > 0:
            term *= -0.5 * x * x / (m * (2 * l + 2 * m + 1))
        total += term
    return x**l / dfact * total


class TestBesselJ:
    def test_j0_at_zero(self):
        assert specfun.bessel_j(0, 0.0) == 1.0

    def test_higher_orders_at_zero(self):
        for l in (1, 2, 7):
            assert specfun.bessel_j(l, 0.0) == 0.0

    def test_j1_at_pi(self):
        assert specfun.bessel_j(1, math.pi) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_series_oracle_l5(self):
        want = series_jl(5, 2.0)
        got = specfun.bessel_j(5, 2.0)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("l", [0, 1, 2, 3, 5, 8, 13, 21, 34, 50])
    def test_against_scipy(self, l):
        rng = np.random.default_rng(12345 + l)
        x = np.concatenate([
            rng.uniform(-50.0, 50.0, 300),
            rng.uniform(-1000.0, 1000.0, 100),
            rng.uniform(1e-8, 0.099, 50),
        ])
        x = x[x != 0.0]
        got = specfun.bessel_j(l, x)
        want = spherical_jn(l, x)
        # guarded relative error: zeros of j_l make the pure relative error meaningless
        denom = np.maximum(np.abs(want), 1e-6)
        assert np.max(np.abs(got - want) / denom) < 5e-13

    def test_large_argument(self):
        # j_l for |x| up to 1e3 stays accurate
        for l in (0, 3, 50):
            x = 987.654
            assert specfun.bessel_j(l, x) == pytest.approx(spherical_jn(l, x), rel=1e-12, abs=1e-18)

    def test_array_shape_and_scalar(self):
        x = np.array([[0.5, 1.0], [2.0, 3.0]])
        vals = specfun.bessel_j(2, x)
        assert vals.shape == (2, 2)
        assert vals[0, 1] == specfun.bessel_j(2, 1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            specfun.bessel_j(0, math.nan)
        with pytest.raises(InvalidInputError):
            specfun.bessel_j(1, math.inf)

    def test_negative_order_rejected(self):
        with pytest.raises(InvalidInputError):
            specfun.bessel_j(-1, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        l=st.integers(min_value=0, max_value=20),
        x=st.floats(min_value=-50.0, max_value=50.0).filter(lambda v: abs(v) > 1e-3),
    )
    def test_recurrence_property(self, l, x):
        jl = specfun.bessel_j(l, x)
        jp = specfun.bessel_j(l + 1, x)
        jm = math.cos(x) / x if l == 0 else specfun.bessel_j(l - 1, x)
        residual = abs(jm + jp - (2 * l + 1) * jl / x)
        assert residual <= 1e-10 * max(1.0, abs(jl))

    @settings(max_examples=200, deadline=None)
    @given(
        l=st.integers(min_value=0, max_value=20),
        x=st.floats(min_value=1e-6, max_value=50.0),
    )
    def test_parity_property(self, l, x):
        plus = specfun.bessel_j(l, x)
        minus = specfun.bessel_j(l, -x)
        assert abs(minus - (-1.0) ** l * plus) <= 1e-14 * max(1.0, abs(plus))


class TestBesselU:
    def test_u0_at_pi(self):
        assert specfun.bessel_u(0, math.pi) == pytest.approx(-1.0 / math.pi, rel=1e-14)

    def test_u1_limit_at_zero(self):
        assert specfun.bessel_u(1, 0.0) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_u_higher_orders_at_zero(self):
        for l in (2, 3, 9):
            assert specfun.bessel_u(l, 0.0) == 0.0

    def test_u0_singularity(self):
        with pytest.raises(SingularityError):
            specfun.bessel_u(0, 0.0)

    def test_finite_difference_oracle_l3(self):
        # u_l(x) = x^{-1} d/dx [x j_l(x)], checked by step-halved central differences
        x = 1.5
        best = None
        h = 1e-3
        for _ in range(8):
            deriv = ((x + h) * specfun.bessel_j(3, x + h) - (x - h) * specfun.bessel_j(3, x - h)) / (2 * h)
            best = deriv / x
            h /= 2.0
        assert specfun.bessel_u(3, x) == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize("l", [1, 2, 5, 12])
    def test_against_scipy_derivative(self, l):
        rng = np.random.default_rng(99 + l)
        x = rng.uniform(0.05, 40.0, 200)
        got = specfun.bessel_u(l, x)
        want = spherical_jn(l, x) / x + spherical_jn(l, x, derivative=True)
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-8)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        l=st.integers(min_value=1, max_value=20),
        x=st.floats(min_value=1e-6, max_value=50.0),
    )
    def test_parity_property(self, l, x):
        plus = specfun.bessel_u(l, x)
        minus = specfun.bessel_u(l, -x)
        assert abs(minus - (-1.0) ** (l + 1) * plus) <= 1e-14 * max(1.0, abs(plus))

    def test_recurrence_definition(self):
        # u_l = [(l+1) j_{l-1} - l j_{l+1}] / (2l+1)
        for l, x in [(1, 0.7), (4, 3.3), (9, 17.0)]:
            want = ((l + 1) * specfun.bessel_j(l - 1, x) - l * specfun.bessel_j(l + 1, x)) / (2 * l + 1)
            assert specfun.bessel_u(l, x) == pytest.approx(want, rel=1e-14)

    def test_pair_evaluation_matches(self):
        # the pair evaluation shares one (deeper) recurrence table, so values
        # may differ from the standalone calls in the last ulps only
        x = np.linspace(0.1, 20.0, 57)
        jv, uv = specfun.bessel_j_and_u(4, x)
        assert np.allclose(jv, specfun.bessel_j(4, x), rtol=1e-13, atol=1e-300)
        assert np.allclose(uv, specfun.bessel_u(4, x), rtol=1e-13, atol=1e-300)


class TestBesselJPrime:
    def test_against_scipy(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0.05, 50.0, 200)
        for l in (0, 1, 4):
            got = specfun.bessel_j_prime(l, x)
            want = spherical_jn(l, x, derivative=True)
            assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-8)) < 1e-12

    def test_limits_at_zero(self):
        assert specfun.bessel_j_prime(0, 0.0) == 0.0
        assert specfun.bessel_j_prime(1, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert specfun.bessel_j_prime(2, 0.0) == 0.0


class TestLommelFirst:
    def test_l0_sin_squared(self):
        assert specfun.lommel_first(0, 1.0, math.pi) == pytest.approx(math.pi / 2, rel=1e-14)

    def test_alpha_scaling(self):
        # substitution x = 2r gives 1/alpha^3 scaling at fixed alpha*a
        left = specfun.lommel_first(1, 2.0, math.pi / 2)
        right = specfun.lommel_first(1, 1.0, math.pi) / 8.0
        assert left == pytest.approx(right, rel=1e-14)

    def test_quadrature_oracle(self):
        got = specfun.lommel_first(2, 1.3, 4.0)
        oracle = integrate_radial(
            lambda r: r * r * specfun.bessel_j(2, 1.3 * r) ** 2, 4.0, 1e-12, osc_scale=1.3
        ).value
        assert got == pytest.approx(oracle, rel=1e-10)

    def test_grid_against_quadrature(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            l = int(rng.integers(0, 9))
            alpha = float(rng.uniform(0.2, 8.0)) * (1 if rng.random() < 0.5 else -1)
            a = float(rng.uniform(0.3, 5.0))
            closed = specfun.lommel_first(l, alpha, a)
            oracle = integrate_radial(
                lambda r: r * r * specfun.bessel_j(l, alpha * r) ** 2,
                a, 1e-12, osc_scale=abs(alpha),
            ).value
            assert closed == pytest.approx(oracle, rel=1e-10)
            assert closed > 0.0

    @settings(max_examples=150, deadline=None)
    @given(
        l=st.integers(min_value=0, max_value=12),
        alpha=st.floats(min_value=0.05, max_value=20.0),
        a=st.floats(min_value=0.05, max_value=8.0),
    )
    def test_positivity_property(self, l, alpha, a):
        assert specfun.lommel_first(l, alpha, a) > 0.0

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            specfun.lommel_first(1, 0.0, 1.0)
        with pytest.raises(InvalidInputError):
            specfun.lommel_first(1, 1.0, -2.0)


class TestLommelSecond:
    @pytest.mark.parametrize(
        "l,k,K,a",
        [(1, 1.0, 2.0, 1.0), (2, 0.7, 1.9, 3.0), (4, -1.5, 0.8, 2.0), (3, 2.0, 5.0, 4.0)],
    )
    def test_quadrature_oracle(self, l, k, K, a):
        closed = specfun.lommel_second(l, k, K, a)
        oracle, err = scipy_quad(
            lambda r: r * r * spherical_jn(l, k * r) * spherical_jn(l, abs(K) * r) * (1 if K > 0 else (-1) ** l),
            0.0, a, limit=400, epsabs=1e-14, epsrel=1e-13,
        )
        assert closed == pytest.approx(oracle, rel=1e-10, abs=1e-13)

    def test_diagonal_rejected(self):
        with pytest.raises(InvalidInputError):
            specfun.lommel_second(1, 2.0, -2.0, 1.0)

    @pytest.mark.parametrize("l,k,rho", [(24, 0.82, 1e-10), (3, 1.3, 1e-8), (0, 1.3, -1e-8)])
    def test_near_diagonal_against_mpmath(self, l, k, rho):
        # Lommel's difference alone was off by 1.2e-6 and 1.7e-8 of the scale at the first two
        K = k * math.sqrt(1.0 + rho)
        n_k, n_K, m = mp_lommel.mode_integrals(2, l, k, K, 1.0)
        assert abs(specfun.lommel_second(l, k, K, 1.0) - m) <= 1e-13 * math.sqrt(n_k * n_K)


# ---------------------------------------------------------------------------
# table kernels: the per-order loops they replaced, kept as bit-level references


def reference_series(lmax, x):
    """Ascending series, one order at a time."""
    block = np.empty((lmax + 1, x.size))
    x2 = x * x
    for order in range(lmax + 1):
        pref = x**order / specfun._double_factorial(2 * order + 1)
        term = np.ones_like(x)
        total = np.ones_like(x)
        for m in range(1, 12):
            term = term * (-x2) / (2.0 * m * (2 * order + 2 * m + 1))
            total = total + term
        block[order] = pref * total
    return block


def reference_miller(lmax, x, rescaled=None):
    """Downward recurrence with the rescale check at every order.

    Appends the boolean column mask of each rescale to ``rescaled``.
    """
    start = lmax + specfun._MILLER_MARGIN
    block = np.zeros((lmax + 1, x.size))
    f_up = np.zeros_like(x)
    f_cur = np.full_like(x, 1e-30)
    for order in range(start, 0, -1):
        f_down = (2 * order + 1) / x * f_cur - f_up
        f_up, f_cur = f_cur, f_down
        big = np.abs(f_cur) > specfun._RESCALE_LIMIT
        if big.any():
            if rescaled is not None:
                rescaled.append(big)
            scale = np.where(big, 1e-250, 1.0)
            f_cur = f_cur * scale
            f_up = f_up * scale
            if order <= lmax:
                block[order:, :] *= scale
        if order - 1 <= lmax:
            block[order - 1] = f_cur
    sx, cx = np.sin(x), np.cos(x)
    j0 = sx / x
    j1 = sx / (x * x) - cx / x
    use0 = np.abs(j0) >= np.abs(j1)
    reference = np.where(use0, j0, j1)
    raw = np.where(use0, block[0], block[1] if lmax >= 1 else block[0])
    block *= reference / raw
    return block


class TestTableKernelsBitIdentical:
    def test_series(self):
        rng = np.random.default_rng(20)
        for lmax in range(1, 51):
            x = rng.uniform(0.0, specfun._SERIES_CUTOFF, int(rng.integers(1, 40)))
            assert np.array_equal(specfun._jl_series(lmax, x), reference_series(lmax, x)), lmax

    def test_miller(self):
        rng = np.random.default_rng(21)
        for lmax in range(1, 51):
            for size in (1, 2, 33):
                x = np.exp(rng.uniform(math.log(specfun._SERIES_CUTOFF), math.log(lmax), size))
                assert np.array_equal(specfun._jl_miller(lmax, x), reference_miller(lmax, x)), (lmax, size)

    def test_miller_rescale_of_one_column(self):
        # a deep table at small x rescales; the column at x = 30 does not
        x = np.array([0.1, 30.0])
        rescaled = []
        want = reference_miller(50, x, rescaled)
        assert rescaled and all(big.tolist() == [True, False] for big in rescaled)
        assert np.array_equal(specfun._jl_miller(50, x), want)

    @pytest.mark.parametrize("l", [1, 2, 6, 24])
    def test_merged_integrand_tables(self, l):
        # one table for the points of several pairs, at k r and K r, gives
        # each point's value unchanged; a self pair enters its points once
        rng = np.random.default_rng(22 + l)
        pairs = [(0.7, 0.71), (-1.3, 2.4), (5.0, 0.02), (1.9, 1.9)]
        points = [rng.uniform(0.0, 3.0, n) for n in (45, 30, 15, 60)]
        points[0][0] = 1e-4
        merged_j = theorems._kernel_values(2, l, pairs, points)
        merged_ju = theorems._kernel_values(1, l, pairs, points)
        integrand = theorems._mode_integrand(Mode(2, l), pairs)([0, 1, 2, 3], points)
        for (k, K), r, ((jk,), (jK,)), (at_k, at_K), f in zip(pairs, points, merged_j, merged_ju, integrand):
            assert np.array_equal(jk, specfun.bessel_j(l, k * r))
            assert np.array_equal(jK, specfun.bessel_j(l, K * r))
            assert np.array_equal(f, r * r * jk * jK)
            want = specfun.bessel_j_and_u(l, k * r) + specfun.bessel_j_and_u(l, K * r)
            assert all(np.array_equal(g, w) for g, w in zip(at_k + at_K, want))


class TestRowsBitIdentical:
    """``_jl_rows`` (Python floats, one point at a time) against ``_jl_table``."""

    @staticmethod
    def arguments(rng, lmax):
        cut = specfun._SERIES_CUTOFF
        return [
            *np.exp(rng.uniform(math.log(1e-6), math.log(cut), 2)),
            float(np.nextafter(cut, 0.0)), cut,
            *np.exp(rng.uniform(math.log(cut), math.log(lmax), 2)),
            float(np.nextafter(float(lmax), 0.0)), float(lmax),
            *np.exp(rng.uniform(math.log(lmax), math.log(1e3), 2)),
        ]

    def test_all_regimes_and_boundaries(self):
        rng = np.random.default_rng(40)
        for lmax in range(1, 51):
            xs = self.arguments(rng, lmax)
            for size in (1, 2, 3):
                for start in range(len(xs)):
                    chosen = [xs[(start + 3 * i) % len(xs)] for i in range(size)]
                    want = specfun._jl_table(lmax, np.array(chosen)).tolist()
                    assert scalar._jl_rows(lmax, chosen) == want, (lmax, chosen)

    def test_rescaling_column(self):
        # the column at x = 0.1 of a table of order 50 rescales on the way down
        rescaled = []
        reference_miller(50, np.array([0.1]), rescaled)
        assert rescaled
        for xs in ([0.1], [0.1, 30.0], [60.0, 0.1, 0.05]):
            assert scalar._jl_rows(50, xs) == specfun._jl_table(50, np.array(xs)).tolist()

    def test_random_cells(self):
        rng = np.random.default_rng(41)
        for _ in range(2000):
            lmax = int(rng.integers(0, 52))
            xs = np.exp(rng.uniform(math.log(1e-3), math.log(200.0), int(rng.integers(1, 4)))).tolist()
            assert scalar._jl_rows(lmax, xs) == specfun._jl_table(lmax, np.array(xs)).tolist(), (lmax, xs)

    def test_ten_thousand_points_all_regimes(self):
        # the rows take sin and cos from math, the table from numpy
        rng = np.random.default_rng(43)
        points = 0
        for lmax in range(0, 51):
            top = max(lmax, 2 * specfun._SERIES_CUTOFF)
            xs = np.concatenate([
                rng.uniform(1e-8, specfun._SERIES_CUTOFF, 40),
                np.exp(rng.uniform(math.log(specfun._SERIES_CUTOFF), math.log(top), 80)),
                np.exp(rng.uniform(math.log(top), math.log(1e3), 80)),
            ]).tolist()
            points += len(xs)
            assert scalar._jl_rows(lmax, xs) == specfun._jl_table(lmax, np.array(xs)).tolist(), lmax
            assert [math.sin(x) for x in xs] == np.sin(xs).tolist()
            assert [math.cos(x) for x in xs] == np.cos(xs).tolist()
        assert points >= 10_000

    def test_signed_value(self):
        rng = np.random.default_rng(42)
        for l in range(0, 31):
            for x in (0.0, -0.0, 0.05, -0.05, *rng.uniform(-40.0, 40.0, 6)):
                assert scalar._jl_value(l, float(x)) == specfun.bessel_j(l, float(x)), (l, x)


class TestAccuracyMap:
    """The module docstring's accuracy claim, checked against mpmath.

    For x < l + 1, where j_l has no zeros, the error is relative to |j_l(x)|;
    beyond, it is relative to the envelope sqrt(j_l^2 + y_l^2).  Values below
    1e-300 underflow and are left out.
    """

    TOL = 1e-12

    @staticmethod
    def reference(l, x):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            x = mp.mpf(float(x))
            pre = mp.sqrt(mp.pi / (2 * x))
            nu = l + mp.mpf(1) / 2
            j, y = pre * mp.besselj(nu, x), pre * mp.bessely(nu, x)
            return float(j), float(mp.hypot(j, y))

    def arguments(self, rng, l):
        cut = specfun._SERIES_CUTOFF
        xs = [*np.exp(rng.uniform(math.log(1e-8), math.log(cut), 4)), np.nextafter(cut, 0.0), cut]
        if l >= 1:
            xs += [*np.exp(rng.uniform(math.log(cut), math.log(l), 4)), np.nextafter(float(l), 0.0), float(l)]
        xs += [*np.exp(rng.uniform(math.log(max(l, cut)), math.log(1e3), 4)), 1e3]
        return np.array(xs)

    def errors(self, l, x, got):
        out = []
        for xi, gi in zip(x, got):
            want, envelope = self.reference(l, xi)
            if abs(want) < 1e-300:
                assert abs(gi) < 1e-290, (l, xi, gi)
                continue
            out.append(abs(gi - want) / (abs(want) if xi < l + 1 else envelope))
        return np.array(out)

    def test_bessel_j(self):
        rng = np.random.default_rng(30)
        for l in range(51):
            x = self.arguments(rng, l)
            err = self.errors(l, x, specfun.bessel_j(l, x))
            assert err.max() <= self.TOL, (l, err.max())
            # negative arguments take the parity, exactly
            assert np.array_equal(specfun.bessel_j(l, -x), (-1) ** l * specfun.bessel_j(l, x))

    @pytest.mark.parametrize("lmax", [8, 50])
    def test_table_rows(self, lmax):
        # every order of one table, around the switch at x = lmax: orders
        # below x come from the Miller recurrence there
        rng = np.random.default_rng(31 + lmax)
        x = self.arguments(rng, lmax)
        table = specfun._jl_table(lmax, x)
        for l in range(lmax + 1):
            err = self.errors(l, x, table[l])
            assert err.max() <= self.TOL, (l, err.max())
