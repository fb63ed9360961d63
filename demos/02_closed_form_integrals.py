#!/usr/bin/env python3
"""Closed-form radial integrals against brute-force adaptive quadrature.

The j=2 self integral has a classical closed form (Lommel's first
integral) and the cross integral of two wavenumbers another (Lommel's
second); both are cross-checked here by the same adaptive Gauss-Kronrod
integrator that later certifies the theorems.  The half-line integral of
j_l(alpha r)^2 converges to pi / (2 (2l+1) alpha), while the curl-kernel
combination |r u_l|^2 is *not* integrable on the half line -- the source
radius a always keeps the certified integrals finite.  A half-line
integral is integrated over [0, L] by the same integrator, with a larger
panel budget.
"""

import math

from tunedsource import specfun
from tunedsource.quadrature import integrate_radial

HALF_LINE_PANELS = 65536

print("=== Lommel's first integral: int_0^a r^2 j_l(alpha r)^2 dr ===")
print("l  alpha  a      closed form        quadrature         rel diff")
for (l, alpha, a) in [(0, 1.0, math.pi), (2, 1.3, 4.0), (5, 7.0, 2.0)]:
    closed = specfun.lommel_first(l, alpha, a)
    quad = integrate_radial(lambda r: r * r * specfun.bessel_j(l, alpha * r) ** 2,
                            a, 1e-12, osc_scale=2 * alpha)
    rel = abs(closed - quad.value) / closed
    print(f"{l}  {alpha:<5.2f} {a:<6.3f} {closed:.12e} {quad.value:.12e} {rel:.1e}"
          f"   ({quad.panels_used} panels)")

print("\n=== Lommel's second integral: int_0^a r^2 j_l(kr) j_l(Kr) dr ===")
for (l, k, K, a) in [(1, 1.0, 2.0, 1.0), (3, -1.5, 0.8, 2.0)]:
    closed = specfun.lommel_second(l, k, K, a)
    quad = integrate_radial(
        lambda r: r * r * specfun.bessel_j(l, k * r) * specfun.bessel_j(l, K * r),
        a, 1e-12, osc_scale=abs(k) + abs(K)).value
    print(f"l={l}, k={k}, K={K}: closed={closed:+.12e}  quad={quad:+.12e}")

print("\n=== half-line integral of j_l(alpha r)^2 -> pi / (2 (2l+1) alpha) ===")
print("l  alpha  truncated at L=2000/alpha   limit value    rel diff")
for (l, alpha) in [(0, 1.0), (2, 3.0), (4, 0.5)]:
    L = 2000.0 / alpha
    got = integrate_radial(lambda r: specfun.bessel_j(l, alpha * r) ** 2,
                           L, 1e-10, osc_scale=2 * alpha, max_panels=HALF_LINE_PANELS).value
    want = math.pi / (2 * (2 * l + 1) * alpha)
    print(f"{l}  {alpha:<5.2f} {got:.8f}              {want:.8f}     {abs(got-want)/want:.1e}")

print("\n=== the curl kernel has no finite half-line square integral ===")
print("truncated integral of |r u_2(r)|^2 keeps growing with the cutoff:")
for L in (100.0, 200.0, 400.0, 800.0):
    val = integrate_radial(lambda r: (r * specfun.bessel_u(2, r)) ** 2, L, 1e-9,
                           max_panels=HALF_LINE_PANELS).value
    print(f"  L = {L:6.0f}: {val:10.3f}")
print("(linear growth; the finite source radius is what keeps everything finite)")
