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

    @pytest.mark.parametrize("max_panels", [8192, 64])
    def test_panel_count_past_the_float_range(self, max_panels):
        # a * osc_scale / pi overflows to inf, and math.ceil(inf) raised a bare OverflowError; it is clamped first
        res = integrate_radial(lambda r: r, 10.0, osc_scale=1e308, max_panels=max_panels)
        assert res.value == pytest.approx(50.0, rel=1e-14)
        assert res.panels_used == max_panels

    def test_scalar_only_integrand_fallback(self):
        # there is no point-by-point fallback: f is called on the array of a round's nodes,
        # and a scalar-only f or one value for the whole array raises, never a number
        with pytest.raises(TypeError):
            integrate_radial(lambda r: float(r) ** 2, 1.0)
        with pytest.raises(ValueError, match="one value per node"):
            integrate_radial(lambda r: np.sum(r), 1.0)

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

    @pytest.mark.parametrize("f", [lambda r: 1e200 * r * 1e200, lambda r: (r - r) * np.inf],
                             ids=["overflow", "invalid"])
    def test_integrand_whose_arithmetic_overflows(self, f):
        # numpy's overflow and invalid-value warnings escaped from the integrand, which the suite turns into errors
        with pytest.raises(IntegrandDomainError):
            integrate_radial(f, 1.0)

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
    nodes, w_kronrod, w_gauss = quadrature._rule()

    def eval_panels(lo, hi):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
        integral = half * np.add.reduce(vals * w_kronrod, axis=1)
        err = np.abs(integral - half * np.add.reduce(vals * w_gauss, axis=1))
        return integral, err, half * np.add.reduce(np.abs(vals) * w_kronrod, axis=1)

    n0 = min(max(1, math.ceil(a * max(abs(osc_scale), 1.0) / math.pi)), max_panels)
    edges = np.linspace(0.0, a, n0 + 1)
    lo, hi = edges[:-1], edges[1:]
    integral, err, resabs = eval_panels(lo, hi)
    while True:
        total, total_err, res = np.add.reduceat(np.stack([integral, err, resabs]), [0], axis=1)[:, 0].tolist()
        threshold = max(rel_tol * abs(total), 1e-15, 100.0 * quadrature._EPS * res)
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
    """Lockstep integrand that evaluates integral i with fs[i] on its own nodes; logs each round's active integrals."""

    def f(owner, r):
        active = sorted(set(owner.tolist()))
        assert owner.tolist() == sorted(owner.tolist())   # grouped by integral, ascending
        if log is not None:
            log.append(active)
        values = np.empty(r.size)
        for i in active:
            values[owner == i] = fs[i](r[owner == i])
        return values

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

    def test_different_initial_panel_counts(self):
        # one panel for osc_scale 1 and 39 for 40 at a = 3: the flat rounds
        # hold blocks of different sizes from the start
        fs = [lambda r: r * specfun.bessel_j(2, 1.3 * r) ** 2,
              lambda r: r * r * specfun.bessel_j(3, 40.0 * r) * specfun.bessel_j(3, 39.5 * r),
              lambda r: np.sin(40.0 * r) ** 2 * r,
              lambda r: np.exp(-r) * r]
        oscs = [1.0, 40.0, 40.0, 1.0]
        sizes = []

        def f(owner, r):
            sizes.append(np.bincount(owner).tolist())
            return _batch_of(fs)(owner, r)

        batch = integrate_radial_batch(f, 3.0, 1e-13, osc_scales=oscs)
        assert sizes[0] == [15, 15 * 39, 15 * 39, 15]
        for f, osc, got in zip(fs, oscs, batch):
            assert got == integrate_radial(f, 3.0, 1e-13, osc_scale=osc) == reference_adaptive(f, 3.0, 1e-13, osc)
        assert batch[0].panels_used < 39 <= batch[1].panels_used

    def test_failure_in_a_later_round(self):
        # integral 1 turns non-finite only in its second round; integral 0
        # refines on and fails last, integral 2 stops refining with 1
        def turns_bad():
            calls = []

            def f(r):
                calls.append(r.copy())
                vals = np.sin(30.0 * r) * r
                if len(calls) == 2:
                    vals[3] = np.nan
                return vals

            return f, calls

        stuck = lambda r: np.sin(5000.0 * r)
        bad, bad_calls = turns_bad()
        nodes = []
        logged = lambda r: nodes.append(r.copy()) or stuck(r)
        log = []
        with pytest.raises(ConvergenceError) as info:
            integrate_radial_batch(_batch_of([logged, bad, lambda r: r * r * np.sin(9.0 * r)], log), 1.0, 1e-12,
                                   osc_scales=[1.0, 1.0, 1.0], max_panels=16)
        want = self._lone_error(stuck, max_panels=16)
        assert str(info.value) == str(want) and info.value.result == want.result
        assert len(bad_calls) == 2 and log[1] == [0, 1, 2] and all(active == [0] for active in log[2:])
        # integral 0 sampled exactly the nodes of its lone run, round by round
        lone_nodes = []
        with pytest.raises(ConvergenceError):
            integrate_radial(lambda r: lone_nodes.append(r.copy()) or stuck(r), 1.0, 1e-12, max_panels=16)
        assert len(nodes) == len(lone_nodes) and all(np.array_equal(a, b) for a, b in zip(nodes, lone_nodes))
        # alone, the integrand that turns bad raises in its second round too
        bad, bad_calls = turns_bad()
        with pytest.raises(IntegrandDomainError):
            integrate_radial(bad, 1.0, 1e-12)
        assert len(bad_calls) == 2

    def test_values_must_match_the_nodes(self):
        # one value per node of the round, in r's shape; anything else is refused, not broadcast
        for wrong in (lambda r: np.ones(r.size - 1), lambda r: np.ones(r.size + 15),
                      lambda r: np.ones((r.size, 1)), lambda r: 1.0):
            with pytest.raises(ValueError):
                integrate_radial_batch(lambda owner, r: wrong(r), 3.0, osc_scales=[1.0, 40.0])

    def test_empty_batch(self):
        def never(owner, r):
            raise AssertionError("the integrand of an empty batch is never called")

        assert integrate_radial_batch(never, 1.0, osc_scales=[]) == []
        with pytest.raises(InvalidInputError):
            integrate_radial_batch(never, 0.0, osc_scales=[])

    def test_scalar_only_fallback_is_bit_identical(self):
        # a lone run is a batch of one through the one vectorized path: on a vectorized f it
        # equals the batch and the reference loop to the bit, and a scalar-only f raises in both
        scalar = lambda r: float(r) * float(r) * 3.0 + 1.0
        vector = lambda r: r * r * 3.0 + 1.0
        for kwargs, osc in (({"osc_scale": 4.0}, 4.0), ({"max_panels": _HALF_LINE_PANELS}, 1.0)):
            budget = {"max_panels": kwargs.get("max_panels", 8192)}
            (got,) = integrate_radial_batch(_batch_of([vector]), 2.0, 1e-13, osc_scales=[osc], **budget)
            assert got == integrate_radial(vector, 2.0, 1e-13, **kwargs) == reference_adaptive(
                vector, 2.0, 1e-13, osc, **budget
            )
            with pytest.raises(TypeError):
                integrate_radial(scalar, 2.0, 1e-13, **kwargs)
            with pytest.raises(TypeError):
                integrate_radial_batch(_batch_of([scalar]), 2.0, 1e-13, osc_scales=[osc], **budget)

    def test_invalid_batch_limits(self):
        with pytest.raises(InvalidInputError):
            integrate_radial_batch(_batch_of([np.sin]), 0.0, osc_scales=[1.0])
        with pytest.raises(InvalidInputError):
            integrate_radial_batch(_batch_of([np.sin]), 1.0, 1e-15, osc_scales=[1.0])

    @pytest.mark.parametrize("bad", ["1", True, None, 1j])
    def test_limit_and_osc_scales_must_be_real_numbers(self, bad):
        # a=True used to integrate over [0, 1]; "1" and ["x"] raised numpy's or float's own errors
        with pytest.raises(InvalidInputError, match="upper limit a"):
            integrate_radial_batch(_batch_of([np.sin]), bad, osc_scales=[1.0])
        with pytest.raises(InvalidInputError, match="upper limit a"):
            integrate_radial(lambda r: r, bad)
        with pytest.raises(InvalidInputError, match="osc_scales"):
            integrate_radial_batch(_batch_of([np.sin, np.cos]), 1.0, osc_scales=[1.0, bad])
        with pytest.raises(InvalidInputError, match="osc_scales"):
            integrate_radial(lambda r: r, 1.0, osc_scale=bad)

    def test_numpy_reals_accepted(self):
        want = integrate_radial(lambda r: r, 2.0, osc_scale=3.0)
        assert integrate_radial(lambda r: r, np.float64(2.0), osc_scale=np.int64(3)) == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_osc_scale_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            integrate_radial(lambda r: r, 1.0, osc_scale=bad)
        with pytest.raises(InvalidInputError):
            integrate_radial_batch(_batch_of([np.sin, np.cos]), 1.0, osc_scales=[1.0, bad])


class TestPositionIndependentSums:
    """A round's rule sums and convergence sums depend only on their own panel or block, not on where it sits."""

    # every size up to and past np.add.reduce's and np.add.reduceat's 8-element unroll and 128-element pairwise blocks
    SIZES = [*range(1, 132), 255, 256, 257]
    NEIGHBORS = [(0, 0), (0, 1), (1, 0), (0, 130), (130, 0), (7, 129), (1, 1)]    # panels before and after

    @staticmethod
    def _values(rng, shape):
        """Random values of both signs over a few decades, so that a change in the order of a sum shows."""
        return rng.standard_normal(shape) * np.exp(rng.uniform(-3.0, 3.0, shape))

    def _panels(self, rng, n):
        lo = rng.uniform(0.0, 3.0, n)
        return lo, lo + rng.uniform(1e-6, 1.0, n), self._values(rng, (n, 15))

    def test_rule_sums_are_row_wise(self):
        rng = np.random.default_rng(24)
        for size in self.SIZES:
            lo, hi, vals = block = self._panels(rng, size)
            alone, _ = quadrature._eval_panels(lambda owner, r: vals.ravel(), np.zeros(size, dtype=int), lo, hi)
            for before, after in self.NEIGHBORS:
                parts = [self._panels(rng, before), block, self._panels(rng, after)]
                lo_all, hi_all, vals_all = (np.concatenate(part) for part in zip(*parts))
                owner = np.repeat([0, 1, 2], [before, size, after])
                panels, bad = quadrature._eval_panels(lambda o, r: vals_all.ravel(), owner, lo_all, hi_all)
                assert not bad
                assert panels[:, before:before + size].tobytes() == alone.tobytes(), (size, before, after)

    def test_convergence_sums_are_segment_wise(self):
        # the segmented sum of _adaptive: np.add.reduceat over the rows (I, err, resabs) of the round's panels
        rng = np.random.default_rng(25)
        reordered = 0    # blocks whose sums read differently in reverse order: the values show a change of order
        for size in self.SIZES:
            block = self._values(rng, (5, size))
            alone = np.add.reduceat(block[2:], quadrature._starts([size]), axis=1)
            reordered += alone.tobytes() != np.add.reduceat(block[2:, ::-1], [0], axis=1).tobytes()
            for before, after in ([], []), ([], [1]), ([1], []), ([130, 1, 9], [3, 129]), ([1] * 5, [1] * 3):
                counts = [*before, size, *after]
                panels = np.concatenate([self._values(rng, (5, sum(before))), block,
                                         self._values(rng, (5, sum(after)))], axis=1)
                sums = np.add.reduceat(panels[2:], quadrature._starts(counts), axis=1)
                assert sums[:, len(before)].tobytes() == alone[:, 0].tobytes(), (size, before, after)
        assert reordered > len(self.SIZES) // 2
