"""Constraint-root location and minimal-multiplier selection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tunedsource.errors import (
    ConstraintEvaluationError,
    InvalidInputError,
    NoTunedSolutionError,
)
from tunedsource.tuning import ChiSet, _interp, _linspace, find_constraint_roots, select_chi0


class TestFindConstraintRoots:
    def test_quadratic_roots(self):
        xi = find_constraint_roots(lambda c: c * c - 1.0, -2.0, 2.0, 64, 1e-10)
        assert len(xi.roots) == 2
        assert xi.roots[0] == pytest.approx(-1.0, abs=1e-10)
        assert xi.roots[1] == pytest.approx(1.0, abs=1e-10)

    def test_no_real_roots(self):
        xi = find_constraint_roots(lambda c: c * c + 1.0, -2.0, 2.0, 64, 1e-10)
        assert xi.roots == ()

    def test_sine_roots(self):
        xi = find_constraint_roots(math.sin, -4.0, 4.0, 256, 1e-10)
        assert len(xi.roots) == 3
        for found, want in zip(xi.roots, (-math.pi, 0.0, math.pi)):
            assert found == pytest.approx(want, abs=1e-10)

    def test_exact_grid_zero(self):
        xi = find_constraint_roots(lambda c: c, -1.0, 1.0, 5, 1e-12)
        assert xi.roots == (0.0,)

    def test_bracket_certificate(self):
        g = lambda c: math.cos(3.0 * c) - 0.2
        tol = 1e-10
        xi = find_constraint_roots(g, -3.0, 3.0, 301, tol)
        assert xi.roots
        for r in xi.roots:
            assert g(r - tol) * g(r + tol) < 0.0 or abs(g(r)) <= tol

    def test_admissibility_filter(self):
        # k^2 = 1, mu_omega = 1: chi >= 1 is inadmissible
        xi = find_constraint_roots(
            lambda c: (c - 0.5) * (c - 2.0), 0.0, 3.0, 301, 1e-10, k=1.0, mu_omega=1.0
        )
        assert len(xi.roots) == 1
        assert xi.roots[0] == pytest.approx(0.5, abs=1e-10)
        assert len(xi.excluded) == 1
        assert xi.excluded[0] == pytest.approx(2.0, abs=1e-10)

    def test_nonfinite_constraint(self):
        with pytest.raises(ConstraintEvaluationError):
            find_constraint_roots(lambda c: math.nan, -1.0, 1.0, 16, 1e-8)

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            find_constraint_roots(lambda c: c, 2.0, -2.0, 16, 1e-8)
        with pytest.raises(InvalidInputError):
            find_constraint_roots(lambda c: c, -1.0, 1.0, 1, 1e-8)
        with pytest.raises(InvalidInputError):
            find_constraint_roots(lambda c: c, -1.0, 1.0, 16, 0.0)

    @pytest.mark.parametrize("grid_n", [2.9, 16.0, math.inf, math.nan, "5", True, np.bool_(True), np.float64(16.0)])
    def test_grid_n_must_be_an_integer(self, grid_n):
        # 2.9 used to scan 2 points, inf raised OverflowError and "5" TypeError
        with pytest.raises(InvalidInputError, match="grid_n must be an integer"):
            find_constraint_roots(lambda c: c, -1.0, 1.0, grid_n, 1e-8)

    @pytest.mark.parametrize("grid_n", [np.int64(16), np.int32(16), np.uint8(16)])
    def test_grid_n_accepts_numpy_integers(self, grid_n):
        g = lambda c: math.sin(5.0 * c)
        assert find_constraint_roots(g, -1.0, 1.0, grid_n, 1e-10) == find_constraint_roots(g, -1.0, 1.0, 16, 1e-10)

    def test_roots_sorted_strictly_increasing(self):
        xi = find_constraint_roots(lambda c: math.sin(5.0 * c), -3.0, 3.0, 601, 1e-11)
        diffs = np.diff(xi.roots)
        assert np.all(diffs > 0)


class TestSelectChi0:
    def test_smallest_magnitude(self):
        assert select_chi0(ChiSet(roots=(-0.5, 0.3, 1.2), bracket_tol=1e-10)) == 0.3

    def test_tie_prefers_positive(self):
        assert select_chi0(ChiSet(roots=(-0.3, 0.3), bracket_tol=1e-10)) == 0.3

    def test_empty_set(self):
        with pytest.raises(NoTunedSolutionError):
            select_chi0(ChiSet(roots=(), bracket_tol=1e-10))

    def test_zero_in_set_is_selected(self):
        xi = find_constraint_roots(math.sin, -4.0, 4.0, 256, 1e-12)
        assert abs(select_chi0(xi)) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        roots=st.lists(
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            min_size=1, max_size=20, unique=True,
        )
    )
    def test_minimality_property(self, roots):
        chi0 = select_chi0(ChiSet(roots=tuple(sorted(roots)), bracket_tol=1e-10))
        assert all(abs(chi0) <= abs(c) for c in roots)


def same_bits(a, b):
    """Equal lists of floats, with nan == nan and +0.0 != -0.0."""
    return [v.hex() for v in a] == [v.hex() for v in b]


finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


class TestLinspaceBits:
    """``_linspace`` gives ``numpy.linspace``'s bits."""

    @settings(max_examples=400, deadline=None)
    @given(lo=finite, hi=finite, n=st.integers(1, 300))
    def test_random(self, lo, hi, n):
        assert same_bits(_linspace(lo, hi, n), np.linspace(lo, hi, n).tolist())

    @pytest.mark.parametrize("lo, hi, n", [
        (0.0, 1.0, 1), (0.0, 1.0, 2), (-0.0, 0.0, 3), (2.5, 2.5, 5),       # one point, two, zero steps
        (0.0, 5e-324, 7), (1e-320, 1.1e-320, 100), (-1e-300, 1e-300, 11),  # steps that underflow to 0 or not
        (3, 7, 5), (1.0, -1.0, 4), (-0.3, 0.7, 181),
        (-0.0, 0.0, 1), (-0.0, -0.0, 1),                                    # one point adds +0.0 to lo
    ])
    def test_edges(self, lo, hi, n):
        assert same_bits(_linspace(lo, hi, n), np.linspace(lo, hi, n).tolist())
        assert all(type(v) is float for v in _linspace(lo, hi, n))


@st.composite
def tables(draw):
    xp = sorted(set(draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=30))))
    if len(xp) < 2:
        xp = [xp[0], xp[0] + 1.0]
    fp = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=len(xp), max_size=len(xp)))
    return xp, fp


class TestInterpBits:
    """``_interp`` gives ``numpy.interp``'s bits on strictly increasing tables."""

    @settings(max_examples=400, deadline=None)
    @given(table=tables(), data=st.data())
    def test_random(self, table, data):
        xp, fp = table
        span = st.floats(xp[0] - 1.0, xp[-1] + 1.0, allow_nan=False)
        xs = data.draw(st.lists(st.one_of(span, st.sampled_from(xp)), min_size=1, max_size=20))
        got = [_interp(x, xp, fp) for x in xs]
        assert same_bits(got, np.interp(xs, xp, fp).tolist())

    def test_node_hits_last_node_and_two_points(self):
        xp, fp = [-1.0, 0.5, 2.0, 3.0], [4.0, -2.0, 7.5, 1.0]
        for x in (*xp, -5.0, 9.0, 0.0, 2.9999999999999996, np.nextafter(-1.0, 0.0)):
            assert same_bits([_interp(float(x), xp, fp)], [float(np.interp(x, xp, fp))]), x
        rng = np.random.default_rng(7)
        for _ in range(200):
            xp2 = sorted(rng.uniform(-3.0, 3.0, 2).tolist())
            fp2 = rng.uniform(-3.0, 3.0, 2).tolist()
            for x in (*xp2, *rng.uniform(-4.0, 4.0, 5).tolist()):
                assert same_bits([_interp(x, xp2, fp2)], [float(np.interp(x, xp2, fp2))])

    def test_flat_and_overflowing_segments(self):
        # a nan from one side of the segment is retried from the other
        for xp, fp in (([0.0, 1.0], [5.0, 5.0]), ([-1e308, 1e308], [-1e308, 1e308]),
                       ([0.0, 1e-300], [1e300, -1e300]), ([0.0, 1.0], [math.inf, math.inf])):
            for x in (*xp, 0.25 * xp[0] + 0.75 * xp[1], 0.5 * xp[0] + 0.5 * xp[1]):
                assert same_bits([_interp(x, xp, fp)], [float(np.interp(x, xp, fp))]), (xp, fp, x)
