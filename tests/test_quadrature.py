"""Adaptive quadrature: closed-form examples, contracts, refinement behavior."""

import math

import numpy as np
import pytest

from tunedsource import quadrature, specfun
from tunedsource.errors import ConvergenceError, IntegrandDomainError, InvalidInputError
from tunedsource.quadrature import (
    QuadratureResult,
    integrate_radial,
    integrate_radial_batch,
)


class TestIntegrateRadial:
    def test_sin_squared(self):
        res = integrate_radial(lambda r: np.sin(r) ** 2, math.pi)
        assert res.value == pytest.approx(math.pi / 2, rel=1e-13)
        assert res.panels_used >= 1
        assert res.abs_error_estimate >= 0.0

    def test_monomial(self):
        res = integrate_radial(lambda r: r * r, 1.0)
        assert res.value == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_oscillatory_against_lommel(self):
        res = integrate_radial(
            lambda r: r * r * specfun.bessel_j(0, 50.0 * r) ** 2, 2.0, 1e-12, osc_scale=50.0
        )
        assert res.value == pytest.approx(specfun.lommel_first(0, 50.0, 2.0), rel=1e-10)
        # panel density tracks the oscillation count ~ 50*2/pi
        assert res.panels_used >= 30

    def test_scalar_only_integrand_fallback(self):
        res = integrate_radial(lambda r: float(r) ** 2, 1.0)
        assert res.value == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_invalid_limits_and_tolerance(self):
        with pytest.raises(InvalidInputError):
            integrate_radial(lambda r: r, 0.0)
        with pytest.raises(InvalidInputError):
            integrate_radial(lambda r: r, 1.0, rel_tol=1e-2)
        with pytest.raises(InvalidInputError):
            integrate_radial(lambda r: r, 1.0, rel_tol=1e-15)

    @pytest.mark.parametrize("max_panels", [0, -5, True, 8.0, "8"])
    def test_panel_budget_must_be_a_positive_integer(self, max_panels):
        # 0 used to return QuadratureResult(0.0, 0.0, 0) and -5 a numpy ValueError
        with pytest.raises(InvalidInputError, match="max_panels"):
            integrate_radial(lambda r: r, 1.0, max_panels=max_panels)

    def test_numpy_integer_panel_budget(self):
        assert integrate_radial(lambda r: r, 1.0, max_panels=np.int64(8)) == integrate_radial(
            lambda r: r, 1.0, max_panels=8
        )

    def test_nonfinite_integrand(self):
        with pytest.raises(IntegrandDomainError):
            integrate_radial(lambda r: np.where(r > 0.5, np.inf, 1.0), 1.0)

    def test_convergence_error_carries_best_estimate(self):
        # heavily under-resolved oscillation within a tiny panel budget
        with pytest.raises(ConvergenceError) as info:
            integrate_radial(lambda r: np.sin(1000.0 * r), 1.0, 1e-12, max_panels=8)
        best = info.value.result
        assert isinstance(best, QuadratureResult)
        assert best.panels_used >= 8
        assert best.abs_error_estimate > 0.0

    def test_endpoint_never_sampled(self):
        seen = []

        def f(r):
            seen.append(np.min(r))
            return np.cos(r) / r  # singular at 0, integrable sampling only

        res = integrate_radial(lambda r: f(r) * r, 1.0)  # = sin(1)
        assert min(seen) > 0.0
        assert res.value == pytest.approx(math.sin(1.0), rel=1e-13)


# the panel budget of truncated half-line integrals, as in acceptance criterion 02
_HALF_LINE_PANELS = 65536


class TestIntegrateExtended:
    """Truncated half-line integrals: ``integrate_radial`` over [0, L] with a larger panel budget."""

    def test_exponential(self):
        res = integrate_radial(lambda r: np.exp(-r), 100.0, 1e-12, max_panels=_HALF_LINE_PANELS)
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_j0_squared_half_line(self):
        res = integrate_radial(lambda r: specfun.bessel_j(0, r) ** 2, 2000.0, 1e-10, max_panels=_HALF_LINE_PANELS)
        assert res.value == pytest.approx(math.pi / 2, rel=1e-2)

    def test_j2_squared_alpha3(self):
        res = integrate_radial(
            lambda r: specfun.bessel_j(2, 3.0 * r) ** 2, 500.0, 1e-10, osc_scale=3.0, max_panels=_HALF_LINE_PANELS
        )
        assert res.value == pytest.approx(math.pi / 30.0, rel=2e-2)

    def test_curl_kernel_tail_grows(self):
        # |r u_l(alpha r)|^2 is not integrable on the half line: the truncated
        # integral keeps growing linearly with the cutoff, so no finite value
        # is asserted for it anywhere in this library.
        def f(r):
            return (r * specfun.bessel_u(2, 1.0 * r)) ** 2

        i1 = integrate_radial(f, 200.0, 1e-9, max_panels=_HALF_LINE_PANELS).value
        i2 = integrate_radial(f, 400.0, 1e-9, max_panels=_HALF_LINE_PANELS).value
        assert i2 > 1.5 * i1


class TestRefinementProperties:
    def corpus(self):
        return [
            (lambda r: r * r * specfun.bessel_j(1, 3.0 * r) ** 2, 2.0, 3.0),
            (lambda r: specfun.bessel_j(2, 5.0 * r) * specfun.bessel_j(2, 1.5 * r), 4.0, 5.0),
            (lambda r: np.sin(7.0 * r) ** 2 * r, 3.0, 7.0),
        ]

    def test_linearity(self):
        f = lambda r: r * r * specfun.bessel_j(1, 2.0 * r) ** 2
        g = lambda r: specfun.bessel_j(0, 3.0 * r) ** 2
        a, b = 2.5, -1.25
        combo = integrate_radial(lambda r: a * f(r) + b * g(r), 2.0, 1e-12, osc_scale=3.0)
        fi = integrate_radial(f, 2.0, 1e-12, osc_scale=3.0)
        gi = integrate_radial(g, 2.0, 1e-12, osc_scale=3.0)
        assert combo.value == pytest.approx(a * fi.value + b * gi.value, rel=1e-11, abs=1e-13)

    def test_interval_additivity(self):
        f = lambda r: r * specfun.bessel_j(1, 4.0 * r) ** 2
        whole = integrate_radial(f, 3.0, 1e-12, osc_scale=4.0).value
        left = integrate_radial(f, 1.5, 1e-12, osc_scale=4.0).value
        right_fn = lambda r: f(r + 1.5)
        right = integrate_radial(right_fn, 1.5, 1e-12, osc_scale=4.0).value
        assert whole == pytest.approx(left + right, rel=1e-11, abs=1e-13)

    def test_monotone_refinement(self):
        for f, a, osc in self.corpus():
            prev = None
            for rel_tol in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14):
                est = integrate_radial(f, a, rel_tol, osc_scale=osc).abs_error_estimate
                if prev is not None:
                    assert est <= prev * (1.0 + 1e-12)
                prev = est

    def test_deterministic(self):
        f = lambda r: r * r * specfun.bessel_j(3, 2.0 * r) ** 2
        r1 = integrate_radial(f, 5.0, 1e-12, osc_scale=2.0)
        r2 = integrate_radial(f, 5.0, 1e-12, osc_scale=2.0)
        assert r1 == r2


def reference_adaptive(f, a, rel_tol, osc_scale, max_panels=8192):
    """The one-integral adaptive loop the lockstep batch replaced, for bit comparison."""
    nodes, w_kronrod, w_gauss = quadrature._NODES, quadrature._W_KRONROD, quadrature._W_GAUSS

    def eval_panels(lo, hi):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
        integral = half * (vals @ w_kronrod)
        err = np.abs(integral - half * (vals @ w_gauss))
        return integral, err, half * (np.abs(vals) @ w_kronrod)

    n0 = min(max(1, math.ceil(a * max(abs(osc_scale), 1.0) / math.pi)), max_panels)
    edges = np.linspace(0.0, a, n0 + 1)
    lo, hi = edges[:-1], edges[1:]
    integral, err, resabs = eval_panels(lo, hi)
    while True:
        total, total_err = float(integral.sum()), float(err.sum())
        threshold = max(rel_tol * abs(total), 1e-15, 100.0 * quadrature._EPS * float(resabs.sum()))
        if total_err <= threshold:
            return QuadratureResult(total, total_err, lo.size)
        split = err > threshold / lo.size
        if not split.any():
            split = err == err.max()
        mid = 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        child_int, child_err, child_res = eval_panels(new_lo, new_hi)
        lo, hi = np.concatenate([lo[~split], new_lo]), np.concatenate([hi[~split], new_hi])
        integral = np.concatenate([integral[~split], child_int])
        err = np.concatenate([err[~split], child_err])
        resabs = np.concatenate([resabs[~split], child_res])


def _random_integrand(rng):
    """(f, osc_scale) of a seeded oscillatory or smooth test integrand."""
    kind = int(rng.integers(4))
    l = int(rng.integers(0, 8))
    k, K = rng.uniform(0.2, 12.0, 2)
    if kind == 0:
        return (lambda r: r * r * specfun.bessel_j(l, k * r) * specfun.bessel_j(l, K * r)), max(k, K)
    if kind == 1:
        return (lambda r: specfun.bessel_j(l, k * r) ** 2 + r * specfun.bessel_u(l + 1, K * r)), max(k, K)
    if kind == 2:
        return (lambda r: np.sin(k * r) ** 2 * r), k
    return (lambda r: np.exp(-K * r) * (1.0 + r) ** l), float(rng.uniform(0.0, 3.0))


def _batch_of(fs, log=None):
    """Lockstep integrand that evaluates integral i with fs[i]; logs each round's active list."""

    def f(active, points):
        if log is not None:
            log.append(list(active))
        return [fs[i](r) for i, r in zip(active, points)]

    return f


class TestLockstepBatch:
    @pytest.mark.parametrize("rel_tol", [1e-12, 1e-13, 1e-14])
    def test_batch_equals_lone_runs(self, rel_tol):
        rng = np.random.default_rng(int(-math.log10(rel_tol)))
        for _ in range(6):
            a = float(rng.uniform(0.5, 4.0))
            corpus = [_random_integrand(rng) for _ in range(int(rng.integers(2, 9)))]
            fs, oscs = [f for f, _ in corpus], [osc for _, osc in corpus]
            log = []
            batch = integrate_radial_batch(_batch_of(fs, log), a, rel_tol, osc_scales=oscs)
            for f, osc, got in zip(fs, oscs, batch):
                lone = integrate_radial(f, a, rel_tol, osc_scale=osc)
                assert got == lone
                assert got == reference_adaptive(f, a, rel_tol, osc)
            # one integrand call per round, for every integral still refining
            assert log[0] == list(range(len(fs)))
            assert all(later == sorted(later) and set(later) <= set(earlier) for earlier, later in zip(log, log[1:]))

    def test_integrals_finish_in_different_rounds(self):
        fs = [lambda r: r * r, lambda r: np.sin(40.0 * r) ** 2 * r, lambda r: np.exp(-r)]
        log = []
        batch = integrate_radial_batch(_batch_of(fs, log), 3.0, 1e-13, osc_scales=[1.0, 1.0, 1.0])
        rounds = [sum(i in active for active in log) for i in range(3)]
        assert len(set(rounds)) > 1 and rounds[1] == len(log)
        for f, got in zip(fs, batch):
            assert got == integrate_radial(f, 3.0, 1e-13) == reference_adaptive(f, 3.0, 1e-13, 1.0)

    def test_batch_of_one(self):
        f = lambda r: r * specfun.bessel_j(2, 5.0 * r) ** 2
        (got,) = integrate_radial_batch(_batch_of([f]), 2.0, 1e-12, osc_scales=[5.0])
        assert got == integrate_radial(f, 2.0, 1e-12, osc_scale=5.0) == reference_adaptive(f, 2.0, 1e-12, 5.0)

    @staticmethod
    def _lone_error(f, **kwargs):
        with pytest.raises((ConvergenceError, IntegrandDomainError)) as info:
            integrate_radial(f, 1.0, 1e-12, **kwargs)
        return info.value

    @staticmethod
    def _batch_error(fs, **kwargs):
        with pytest.raises((ConvergenceError, IntegrandDomainError)) as info:
            integrate_radial_batch(_batch_of(fs), 1.0, 1e-12, osc_scales=[1.0] * len(fs), **kwargs)
        return info.value

    def test_convergence_error_of_lowest_index(self):
        slow = lambda r: np.abs(r - 1.0 / math.pi) ** -0.5  # splits one panel per round, fails late
        fast = lambda r: np.sin(5000.0 * r)     # splits every panel, fails early
        smooth = lambda r: r * r
        for fs, failing in [([smooth, fast], fast), ([slow, fast], slow), ([fast, slow], fast)]:
            want = self._lone_error(failing, max_panels=16)
            got = self._batch_error(fs, max_panels=16)
            assert type(got) is ConvergenceError
            assert str(got) == str(want)
            assert got.result == want.result  # the failing integral's best estimate
        # the early failure really comes in an earlier round than the late one
        log = []
        with pytest.raises(ConvergenceError):
            integrate_radial_batch(_batch_of([slow, fast], log), 1.0, 1e-12, osc_scales=[1.0, 1.0], max_panels=16)
        assert log[0] == [0, 1] and log[-1] == [0]

    def test_domain_error_of_lowest_index(self):
        bad = lambda r: np.where(r > 0.5, np.inf, 1.0)
        smooth = lambda r: r * r
        stuck = lambda r: np.sin(5000.0 * r)
        assert type(self._batch_error([smooth, bad])) is IntegrandDomainError
        assert type(self._batch_error([bad, stuck], max_panels=16)) is IntegrandDomainError
        got = self._batch_error([stuck, bad], max_panels=16)
        assert type(got) is ConvergenceError
        assert got.result == self._lone_error(stuck, max_panels=16).result

    def test_scalar_only_fallback_is_bit_identical(self):
        scalar = lambda r: float(r) * float(r) * 3.0 + 1.0
        vector = lambda r: r * r * 3.0 + 1.0
        assert integrate_radial(scalar, 2.0, 1e-13, osc_scale=4.0) == integrate_radial(vector, 2.0, 1e-13, osc_scale=4.0)
        assert integrate_radial(scalar, 2.0, 1e-13, max_panels=_HALF_LINE_PANELS) == integrate_radial(
            vector, 2.0, 1e-13, max_panels=_HALF_LINE_PANELS
        )

    def test_invalid_batch_limits(self):
        with pytest.raises(InvalidInputError):
            integrate_radial_batch(_batch_of([np.sin]), 0.0, osc_scales=[1.0])
        with pytest.raises(InvalidInputError):
            integrate_radial_batch(_batch_of([np.sin]), 1.0, 1e-15, osc_scales=[1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_osc_scale_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            integrate_radial(lambda r: r, 1.0, osc_scale=bad)
        with pytest.raises(InvalidInputError):
            integrate_radial_batch(_batch_of([np.sin, np.cos]), 1.0, osc_scales=[1.0, bad])
