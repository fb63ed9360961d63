"""Bessel kernel and Lommel closed-form tests against independent oracles."""

import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.special import spherical_jn

import mp_lommel
from tunedsource import model, scalar, specfun, theorems
from tunedsource.errors import InvalidInputError, SingularityError, UnderflowError
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

    def test_tables_at_zero(self):
        # the series regime's running prefactor multiplies by x: j_0 = 1.0 and +0.0 above it, with no zero branch
        for top in range(31):
            want = [1.0] + [0.0] * top
            table = specfun._jl_table(top, np.array([0.0]))[:, 0]
            assert table.tolist() == want and not np.signbit(table).any(), top
            column = scalar._jl_column(top, 0.0)
            assert list(column) == want and not any(math.copysign(1.0, v) < 0.0 for v in column), top

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

    @pytest.mark.parametrize("x", [1e-309, -1e-309, 5e-324, -5e-324, 2.0**-1024, -(2.0**-1024)])
    def test_u0_overflow_raises(self, x):
        # u_0 = cos(x) / x = 1 / |x| overflows for 0 < |x| <= 2^-1024 = 1 / sys.float_info.max;
        # it used to return +-inf with numpy's RuntimeWarning
        assert 2.0**-1024 == 1.0 / sys.float_info.max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnderflowError, match=r"\|x\| = .* of u_0 = cos\(x\) / x underflows: u_0 overflows"):
                specfun.bessel_u(0, x)
            with pytest.raises(UnderflowError, match="u_0 overflows"):
                specfun.bessel_u(0, np.array([1.0, x, -2.0]))

    def test_u0_finite_just_above_the_overflow(self):
        # the next double above 2^-1024: 1 / x is finite, just below sys.float_info.max
        x = math.nextafter(2.0**-1024, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert specfun.bessel_u(0, x) == 1.0 / x < math.inf
            assert specfun.bessel_u(0, -x) == -1.0 / x
            assert specfun.bessel_u(0, np.array([x, -x])).tolist() == [1.0 / x, -1.0 / x]

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

    @pytest.mark.parametrize("x", [1e-309, -1e-309, 5e-324, -5e-324, 1e-300])
    def test_tiny_and_subnormal_arguments(self, x):
        # the leading terms j_0' = -x/3, j_1' = 1/3, j_2' = 2x/15; their next terms are below rounding here
        for l, want in ((0, -x / 3.0), (1, 1.0 / 3.0), (2, 2.0 * x / 15.0)):
            got = specfun.bessel_j_prime(l, x)
            assert abs(got - want) <= 1e-12 * abs(want) + 5e-324, (l, x, got, want)
            assert specfun.bessel_j_prime(l, np.array([x]))[0] == got


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

    @pytest.mark.parametrize("k", [1e-4, 5e-5])
    def test_underflowed_self_integral_against_mpmath(self, k):
        # N_k underflows to 0; the series used to raise ConvergenceError (k = 1e-4) or give 0.0 (k = 5e-5)
        got = specfun.lommel_second(30, k, 1.0, 1.0)
        assert got == model.radial_integrals(Mode(2, 30), k, 1.0, 1.0).m_cross
        _, _, m = mp_lommel.mode_integrals(2, 30, k, 1.0, 1.0)
        assert abs(got - m) <= 1e-14 * abs(m)


# ---------------------------------------------------------------------------
# Lommel views: the standalone formulas they replaced, kept as bit-level references


def reference_lommel_first(l, alpha, a):
    x = abs(alpha) * a
    column = scalar._jl_column(l + 1, x)
    jlm1 = math.cos(x) / x if l == 0 else column[l - 1]
    return 0.5 * a**3 * (column[l] * column[l] - column[l + 1] * jlm1)


def reference_lommel_second(l, k, K, a):
    """The standalone M_2; None where N(k) or N(K) underflows to 0, where its switch differed from the cell's."""
    ak, aK = abs(k), abs(K)
    x, y = ak * a, aK * a
    col_k, col_K = scalar._jl_column(l + 1, x), scalar._jl_column(l + 1, y)
    (j_k, jp_k), (j_K, jp_K) = col_k[l:], col_K[l:]
    jm_k, jm_K = (math.cos(x) / x, math.cos(y) / y) if l == 0 else (col_k[l - 1], col_K[l - 1])
    value, err = scalar._lommel_second_from(a, ak, aK, j_k, jp_k, j_K, jp_K)
    n_k, n_K = 0.5 * a**3 * (j_k * j_k - jp_k * jm_k), 0.5 * a**3 * (j_K * j_K - jp_K * jm_K)
    if n_k == 0.0 or n_K == 0.0:
        return None
    if err > 1e-12 * math.sqrt(n_k) * math.sqrt(n_K):
        value = scalar._lommel_second_series(l, a, x, y, jm_k, j_k, jp_k)
    return -value if l % 2 == 1 and (k < 0.0) != (K < 0.0) else value


class TestLommelViewsBitIdentical:
    def test_seeded_draws(self):
        rng = np.random.default_rng(45)
        compared = 0
        for _ in range(4000):
            l = int(rng.integers(0, 31))
            k = float(10 ** rng.uniform(-2.5, 1.5) * rng.choice([-1.0, 1.0]))
            a = float(rng.uniform(0.05, 5.0))
            rho = float(10 ** rng.uniform(-12.0, math.log10(3.0)))
            if rho < 1.0 and rng.random() < 0.5:
                rho = -rho
            K = float(abs(k) * math.sqrt(1.0 + rho) * rng.choice([-1.0, 1.0]))
            assert specfun.lommel_first(l, k, a).hex() == reference_lommel_first(l, k, a).hex(), (l, k, a)
            if K * K == k * k:
                continue
            want = reference_lommel_second(l, k, K, a)
            if want is not None:
                assert specfun.lommel_second(l, k, K, a).hex() == want.hex(), (l, k, K, a)
                compared += 1
        assert compared >= 3900


# ---------------------------------------------------------------------------
# table kernels: the per-order loops they replaced, kept as bit-level references


def reference_series(lmax, x):
    """Ascending series, one order at a time, with the prefactor x^n / (2n+1)!! as a running product.

    It keeps the eleven steps the builders took before ``scalar._SERIES_STEPS`` went to 5.
    """
    block = np.empty((lmax + 1, x.size))
    x2 = x * x
    pref = np.ones_like(x)
    for order in range(lmax + 1):
        if order:
            pref = pref * x / (2 * order + 1)
        term = np.ones_like(x)
        total = np.ones_like(x)
        for m in range(1, 12):
            term = term * (-x2) / (2.0 * m * (2 * order + 2 * m + 1))
            total = total + term
        block[order] = pref * total
    return block


def reference_miller(lmax, x, rescaled=None):
    """Downward recurrence with the rescale check at every order.

    Every column starts from 1e-30 at order lmax + ``scalar._miller_margin(lmax)``.
    Appends the boolean column mask of each rescale to ``rescaled``.
    """
    block = np.zeros((lmax + 1, x.size))
    f_up = np.zeros_like(x)
    f_cur = np.full_like(x, 1e-30)
    for order in range(lmax + scalar._miller_margin(lmax), 0, -1):
        f_down = (2 * order + 1) / x * f_cur - f_up
        f_up, f_cur = f_cur, f_down
        big = np.abs(f_cur) > scalar._RESCALE_LIMIT
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


def reference_upward(lmax, x):
    """Upward recurrence on the whole (orders x points) block, row by row."""
    block = np.empty((lmax + 1, x.size))
    sx, cx = np.sin(x), np.cos(x)
    block[0] = sx / x
    if lmax >= 1:
        block[1] = sx / (x * x) - cx / x
    for order in range(1, lmax):
        block[order + 1] = (2 * order + 1) / x * block[order] - block[order - 1]
    return block


class TestTableKernelsBitIdentical:
    def test_upward(self):
        # the table's upward points run scalar._upward_column elementwise
        rng = np.random.default_rng(23)
        for lmax in range(0, 51):
            for size in (1, 2, 33):
                x = rng.uniform(max(lmax, specfun._SERIES_CUTOFF), lmax + 1e3, size)
                x[0] = max(lmax, specfun._SERIES_CUTOFF)    # the regime's lower boundary
                assert np.array_equal(specfun._jl_table(lmax, x), reference_upward(lmax, x)), (lmax, size)

    def test_series(self):
        rng = np.random.default_rng(20)
        for lmax in range(1, 51):
            x = rng.uniform(0.0, specfun._SERIES_CUTOFF, int(rng.integers(1, 40)))
            assert np.array_equal(specfun._jl_table(lmax, x), reference_series(lmax, x)), lmax

    def test_five_series_steps_equal_eleven(self):
        # both builders equal the eleven-step reference to the bit on 204,000
        # points of the series regime, 4,000 of them just below its cutoff.
        # The table takes top 50 on all of them and each top 0..50 on 4,000;
        # the column, a Python loop per point, takes top 1 on all of them
        # (orders 0 and 1 have the largest tails) and each top on 400
        rng = np.random.default_rng(24)
        cut = specfun._SERIES_CUTOFF
        below = cut - np.arange(1, 4001) * 2.0**-56    # the 4,000 doubles below 0.1, one ulp apart
        x = rng.permutation(np.concatenate([rng.uniform(0.0, cut, 150_000), rng.uniform(0.099, cut, 50_000), below]))
        assert x.min() > 0.0 and x.max() == np.nextafter(cut, 0.0)
        want = reference_series(50, x)
        assert np.array_equal(specfun._jl_table(50, x), want)
        assert [scalar._jl_column(1, v) for v in x.tolist()] == list(zip(*want[:2].tolist()))
        for top, at in enumerate(np.split(np.arange(x.size), 51)):
            assert np.array_equal(specfun._jl_table(top, x[at]), want[:top + 1, at]), top
            at = at[:400]
            assert [scalar._jl_column(top, v) for v in x[at].tolist()] == list(zip(*want[:top + 1, at].tolist())), top

    def test_miller(self):
        rng = np.random.default_rng(21)
        for lmax in range(1, 51):
            for size in (1, 2, 33):
                x = np.exp(rng.uniform(math.log(specfun._SERIES_CUTOFF), math.log(lmax), size))
                assert np.array_equal(specfun._jl_table(lmax, x), reference_miller(lmax, x)), (lmax, size)

    def test_miller_rescale_of_one_column(self):
        # a deep table at small x rescales; the column at x = 30 does not
        x = np.array([0.1, 30.0])
        rescaled = []
        want = reference_miller(100, x, rescaled)
        assert rescaled and all(big.tolist() == [True, False] for big in rescaled)
        assert np.array_equal(specfun._jl_table(100, x), want)

    @pytest.mark.parametrize("l", [1, 2, 6, 24])
    def test_merged_integrand_tables(self, l):
        # one table for the points of several pairs, at k r and K r, gives
        # each point's value unchanged; a self pair enters its points once
        rng = np.random.default_rng(22 + l)
        pairs = [(0.7, 0.71), (-1.3, 2.4), (5.0, 0.02), (1.9, 1.9)]
        points = [rng.uniform(0.0, 3.0, n) for n in (45, 30, 15, 60)]
        points[0][0] = 1e-4
        ks, Ks = (np.array(side) for side in zip(*pairs))
        starts = np.cumsum([0] + [r.size for r in points])
        owner, r = np.repeat(np.arange(4), [p.size for p in points]), np.concatenate(points)
        for j, kernel in ((2, lambda x: (specfun.bessel_j(l, x),)), (1, lambda x: specfun.bessel_j_and_u(l, x))):
            at_k, at_K = theorems._round_kernels(j, l, ks, Ks, owner, r)
            for (k, K), pts, s, e in zip(pairs, points, starts[:-1], starts[1:]):
                want = kernel(k * pts) + kernel(K * pts)
                assert all(np.array_equal(g[s:e], w) for g, w in zip(at_k + at_K, want)), (j, k, K)


def columns(lmax, xs):
    """``scalar._jl_column`` at each of xs, as lists: the columns ``_jl_table(lmax, xs)`` must hold."""
    return [list(scalar._jl_column(lmax, float(x))) for x in xs]


class TestRowsBitIdentical:
    """``_jl_column`` (Python floats, one point at a time) against the columns of ``_jl_table``."""

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
                    want = specfun._jl_table(lmax, np.array(chosen)).T.tolist()
                    assert columns(lmax, chosen) == want, (lmax, chosen)

    def test_rescaling_column(self):
        # the column at x = 0.1 of a table of order 100 rescales on the way down
        rescaled = []
        reference_miller(100, np.array([0.1]), rescaled)
        assert rescaled
        for xs in ([0.1], [0.1, 30.0], [60.0, 0.1, 0.05], [120.0, 0.1, 31.0]):
            assert columns(100, xs) == specfun._jl_table(100, np.array(xs)).T.tolist()

    def test_round_sized_tables(self):
        # a round's table: a few hundred points with the three regimes interleaved, repeated
        # arguments, +0.0 and the regime boundaries; each regime writes its rows into its own
        # columns, so every column holds the lone column's bits (0.0 and -0.0 differ here)
        rng = np.random.default_rng(44)
        cut = specfun._SERIES_CUTOFF
        rescaled = []
        reference_miller(100, np.array([cut]), rescaled)
        assert rescaled    # at top 100 the column at x = 0.1 rescales on the way down
        for lmax in [*range(31), 100]:
            top = max(lmax, 2 * cut)
            xs = np.concatenate([
                rng.uniform(0.0, cut, 60),
                np.exp(rng.uniform(math.log(cut), math.log(top), 150)),
                np.exp(rng.uniform(math.log(top), math.log(1e3), 90)),
                [0.0, np.nextafter(cut, 0.0), cut, np.nextafter(float(lmax), 0.0), float(lmax)],
            ])
            xs = rng.permutation(np.concatenate([xs, rng.choice(xs, 60)]))    # 60 repeated arguments
            assert (xs < cut).any() and (xs >= max(lmax, cut)).any() and ((xs >= cut) & (xs < lmax)).any() == (lmax > cut)
            table = specfun._jl_table(lmax, xs)
            assert bits(table.T) == [bits(scalar._jl_column(lmax, x)) for x in xs.tolist()], lmax

    def test_random_cells(self):
        rng = np.random.default_rng(41)
        for _ in range(2000):
            lmax = int(rng.integers(0, 52))
            xs = np.exp(rng.uniform(math.log(1e-3), math.log(200.0), int(rng.integers(1, 4)))).tolist()
            assert columns(lmax, xs) == specfun._jl_table(lmax, np.array(xs)).T.tolist(), (lmax, xs)

    def test_ten_thousand_points_all_regimes(self):
        # the columns take sin and cos from math, the table from numpy
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
            assert columns(lmax, xs) == specfun._jl_table(lmax, np.array(xs)).T.tolist(), lmax
            assert [math.sin(x) for x in xs] == np.sin(xs).tolist()
            assert [math.cos(x) for x in xs] == np.cos(xs).tolist()
        assert points >= 10_000


def bits(values):
    """The IEEE bit patterns of float values, so that 0.0 and -0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# zeros and the least subnormal, of both signs, and points of the series (0.05), Miller (0.7 and 4, at tops
# above them) and upward (25) regimes
_MIXED_ZEROS = [0.0, -0.0, 5e-324, -5e-324, 0.05, -0.05, 0.7, -0.7, 4.0, -4.0, 25.0, -25.0]


@pytest.mark.parametrize("l", [0, 1, 2, 7])
def test_kernels_on_arrays_with_zeros_equal_scalar_calls(l):
    # one table at |x| for the whole array, zeros included, gives each point the bits of a lone call
    x = np.array(_MIXED_ZEROS)
    kernels = [specfun.bessel_j, specfun.bessel_j_prime] + ([specfun.bessel_u] if l else [])
    for kernel in kernels:
        assert bits(kernel(l, x)) == bits([kernel(l, v) for v in _MIXED_ZEROS]), kernel.__name__
    if l:
        pairs = [specfun.bessel_j_and_u(l, v) for v in _MIXED_ZEROS]
        assert [bits(vals) for vals in specfun.bessel_j_and_u(l, x)] == [bits(vals) for vals in zip(*pairs)]
    else:    # u_0 = cos(x) / x: singular at a zero wherever it lies in the array
        with pytest.raises(SingularityError):
            specfun.bessel_u(0, x)


@pytest.mark.parametrize("x", [1e200, -1e200, 1e300, -1e300])
@pytest.mark.parametrize("l", [1, 2])
def test_kernels_where_x_squared_overflows(l, x):
    # j_1's sin x / (x * x) overflowed x * x: numpy warned, though the values were right
    jm, j, jp = scalar._jl_column(l + 1, abs(x))[l - 1:]
    sign = -1.0 if x < 0.0 else 1.0
    want_j = sign**l * j
    want_u = sign ** (l + 1) * scalar._u_from_neighbors(l, jm, jp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert specfun.bessel_j(l, x) == want_j
        assert specfun.bessel_u(l, x) == want_u
        assert specfun.bessel_j_and_u(l, x) == (want_j, want_u)


class TestTripleMemo:
    """``_jl_triple`` against a one-point ``_jl_table``, on its first (cold) and second (warm) call."""

    def test_all_regimes_cold_and_warm(self, monkeypatch):
        # orders up to 200: Miller tops from 27 on start above _UNCHECKED_TOP, where the float loop checks
        # for rescaling, and at small x past a few dozen orders it rescales
        rescale_factor, float_rescales = scalar._rescale_factor, []

        def spy(f):
            scale = rescale_factor(f)
            if type(f) is float and scale is not None:
                float_rescales.append(f)
            return scale

        monkeypatch.setattr(scalar, "_rescale_factor", spy)
        rng = np.random.default_rng(44)
        cut = specfun._SERIES_CUTOFF
        for _ in range(600):
            l = int(rng.integers(1, 201))
            series, miller, upward = (cut * 1e-5, cut), (cut, l + 1), (l + 1, 1e3)
            lo, hi = (series, miller, upward)[int(rng.integers(0, 3))]
            x = float(np.exp(rng.uniform(math.log(lo), math.log(hi))))
            want = specfun._jl_table(l + 1, np.array([x]))[l - 1:l + 2, 0].tolist()
            before = scalar._jl_triple.cache_info()
            cold = scalar._jl_triple(l, x)
            warm = scalar._jl_triple(l, x)
            after = scalar._jl_triple.cache_info()
            assert (after.misses - before.misses, after.hits - before.hits) == (1, 1), (l, x)
            assert type(cold) is tuple and list(cold) == want and warm == cold, (l, x)
        assert scalar._jl_triple.cache_info().currsize <= scalar._TRIPLE_MEMO
        assert len(float_rescales) > 10

    def test_order_zero_takes_cos_over_x(self):
        # j_(-1)(x) = cos(x) / x, the convention of Lommel's integrals at l = 0
        rng = np.random.default_rng(46)
        cut = specfun._SERIES_CUTOFF
        for lo, hi in ((cut * 1e-5, cut), (cut, 1.0), (1.0, 1e3)):    # series, Miller, upward at top 1
            for x in np.exp(rng.uniform(math.log(lo), math.log(hi), 20)).tolist():
                want = [math.cos(x) / x, *specfun._jl_table(1, np.array([x]))[:, 0].tolist()]
                assert list(scalar._jl_triple(0, x)) == want, x


class TestMillerStartRule:
    """The start of the downward recurrence, one per top, shared by both builders."""

    @staticmethod
    def straddling():
        """Both sides of every top bound of the start rule: nextafter(b, 0), the last x of top b, and b."""
        return [v for bound, _ in scalar._MILLER_STARTS for v in (math.nextafter(bound, 0.0), float(bound))]

    def test_margins(self):
        # each top takes the margin that the per-x buckets below give its largest Miller
        # argument, just below the top, so no point starts closer than its bucket needs
        per_point = ((0.5, 8), (2.0, 12), (7.0, 16), (16.0, 28), (32.0, 40))

        def margin_at(x):
            return next((margin for bound, margin in per_point if x < bound), 60)

        tops = range(1, 121)
        assert [scalar._miller_margin(top) for top in tops] == [margin_at(math.nextafter(top, 0.0)) for top in tops]
        assert [scalar._miller_margin(top) for top in (2, 3, 7, 8, 16, 17, 32, 33)] == [12, 16, 16, 28, 28, 40, 40, 60]
        assert scalar._miller_margin(1000) == scalar._MILLER_MARGIN

    def test_start_truncation_below_2e_19(self):
        # the comment above scalar._MILLER_STARTS: the fall of j_n / y_n from the top to the
        # start, at 40 digits, for tops 1..60 at x just below the top, 0.9 top, 0.5 top and 0.1
        mp = pytest.importorskip("mpmath")
        falls = {}
        with mp.workdps(40):
            for top in range(1, 61):
                start = top + scalar._miller_margin(top)
                for x in (math.nextafter(top, 0.0), 0.9 * top, 0.5 * top, specfun._SERIES_CUTOFF):
                    ratio = [mp.besselj(n + 0.5, x) / mp.bessely(n + 0.5, x) for n in (top, start)]
                    falls[top, x] = float(abs(ratio[1] / ratio[0]))
        worst = max(falls, key=falls.get)
        assert len(falls) == 240 and worst == (7, math.nextafter(7.0, 0.0))
        assert 1.6e-19 < falls[worst] < 2e-19

    def test_rows_equal_table_across_buckets(self):
        rng = np.random.default_rng(70)
        xs = self.straddling() + np.exp(rng.uniform(math.log(specfun._SERIES_CUTOFF), math.log(60.0), 12)).tolist()
        for lmax in (1, 8, 33, 50, 120):
            assert columns(lmax, xs) == specfun._jl_table(lmax, np.array(xs)).T.tolist(), lmax

    def test_miller_rows_at_bounds_against_mpmath(self):
        # every row of every Miller table (x < lmax <= 50) on both sides of
        # each bound and of 0.5, relative to |j_l| below l + 1 and to the envelope above
        for x in [math.nextafter(0.5, 0.0), 0.5] + self.straddling():
            want = [TestAccuracyMap.reference(l, x) for l in range(51)]
            for lmax in range(math.floor(x) + 1, 51):
                for l, got in enumerate(scalar._jl_column(lmax, x)):
                    j, envelope = want[l]
                    assert abs(got - j) <= 1e-14 * (abs(j) if x < l + 1 else envelope), (lmax, l, x)


class TestMillerGate:
    """The rescale check of the downward recurrence runs only above start order ``scalar._UNCHECKED_TOP``."""

    def test_unchecked_top_is_the_largest_safe_top(self):
        # from the seed, |f_(n-1)| <= ((2n+1)/x + 1) max(|f_n|, |f_(n+1)|) at x >= the series cutoff
        def bound(top):
            growth = (2 * top + 1) / Fraction(scalar._SERIES_CUTOFF) + 1
            return Fraction(scalar._MILLER_SEED) * growth**top

        safe = [top for top in range(1, 200) if bound(top) <= Fraction(scalar._RESCALE_LIMIT) / 10]
        assert safe == list(range(1, safe[-1] + 1)) and safe[-1] == scalar._UNCHECKED_TOP == 86

    def test_no_rescale_at_the_unchecked_top(self):
        # the largest start order that runs unchecked is 32 + 40 = 72, at lmax 32, where
        # x = 0.1 grows fastest; lmax 33 starts at 93 and is checked
        starts = {lmax: lmax + scalar._miller_margin(lmax) for lmax in range(1, 200)}
        unchecked = {lmax: top for lmax, top in starts.items() if top <= scalar._UNCHECKED_TOP}
        assert max(unchecked) == 32 and unchecked[32] == max(unchecked.values()) == 72 and starts[33] == 93
        rescaled = []
        reference_miller(32, np.array([0.1]), rescaled)
        assert not rescaled

    @pytest.mark.parametrize("lmax,fires", [(2000, False), (3000, True)])
    def test_rescale_in_the_unstored_stretch(self, monkeypatch, lmax, fires):
        # from top 3000 on at x = 0.1, a value passes the rescale limit above the top, where no order is stored
        calls, rescale = [], scalar._rescale_factor

        def spy(f):
            scale = rescale(f)
            calls.append(scale is not None)
            return scale

        monkeypatch.setattr(scalar, "_rescale_factor", spy)
        column = scalar._jl_column(lmax, 0.1)
        assert any(calls[:scalar._miller_margin(lmax)]) == fires
        assert all(map(math.isfinite, column))
        assert column == tuple(specfun._jl_table(lmax, np.array([0.1]))[:, 0].tolist())
        for l in (0, 1, 2, 20):
            want, _ = TestAccuracyMap.reference(l, 0.1)
            assert abs(column[l] - want) <= 1e-14 * abs(want), l

    @pytest.mark.parametrize("lmax", [32, 33, 78, 79, 100, 200])
    def test_tables_on_both_sides_of_the_gate(self, lmax):
        # points across the Miller range and next to its ends; the whole table
        # and one table per third of it, since every column starts at one order
        rng = np.random.default_rng(lmax)
        cut = specfun._SERIES_CUTOFF
        xs = [cut, *np.exp(rng.uniform(math.log(cut), math.log(lmax), 16)).tolist(), math.nextafter(lmax, 0.0)]
        for chosen in [xs, xs[0::3], xs[1::3], xs[2::3]]:
            x = np.array(chosen)
            table = specfun._jl_table(lmax, x)
            assert np.array_equal(table, reference_miller(lmax, x)), (lmax, chosen)
            assert columns(lmax, chosen) == table.T.tolist(), (lmax, chosen)


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

    def test_series_regime(self):
        # scalar._series_column's bound, for both builders: 2e-15 relative for l <= 50 and 1e-12 <= x < 0.1
        rng = np.random.default_rng(32)
        cut = specfun._SERIES_CUTOFF
        x = np.concatenate([[1e-12, np.nextafter(cut, 0.0)], np.exp(rng.uniform(math.log(1e-12), math.log(cut), 60))])
        table = specfun._jl_table(50, x)
        assert table.T.tolist() == columns(50, x.tolist())
        for l in range(51):
            err = self.errors(l, x, table[l])
            assert err.max() <= 2e-15, (l, err.max())

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
