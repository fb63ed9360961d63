#!/usr/bin/env python3
"""The small-tuning expansion behind global minimality and uniqueness.

Each mode's energy weight ratio(chi) = N_j(K)/M_j(k,K)^2 expands as

    ratio(chi) = f0 + f1 chi + f2 chi^2 + O(chi^3)

around zero tuning.  The linear coefficient vanishes for both mode
families -- for j=1 this is checked through four explicit radial
integrals (c0, c1, d0, d1), for j=2 everything has closed forms -- so the
ordering of tuned energies near chi = 0 is decided by chi^2 alone: the
admissible multiplier of smallest magnitude wins, strictly.
"""

from tunedsource import theorems
from tunedsource.model import Mode, minimality_margin

l, k, a, mw = 2, 1.5, 2.0, 1.0
print(f"mode family j=2, l={l}, k={k}, a={a}, mu*omega={mw}")

cf = theorems.expansion_j2(l, k, a, mw)
fd = theorems.expansion_fd(2, l, k, a, mw)
print("\n=== closed forms vs Richardson finite differences ===")
print(f"f0 closed = {cf.f0:.15e}")
print(f"f0 fd     = {fd.f0:.15e}")
print(f"f1 fd     = {fd.f1:+.3e}   (vanishes identically)")
print(f"f2 closed = {cf.f2:.15e}")
print(f"f2 fd     = {fd.f2:.15e}")
print(f"rel diff  = {abs(cf.f2 - fd.f2) / abs(cf.f2):.2e}")

print("\n=== the quadratic law in action ===")
print("t = chi*mw/k^2   ratio(chi) - f0     f2 * chi^2")
for t in (1e-3, 5e-3, 2e-2, 5e-2):
    chi = t * k * k / mw
    rep = minimality_margin(Mode(2, l), k, chi, 0.0, mw, a, 1e-13)
    print(f"{t:<14.0e} {rep.margin:+.6e}     {cf.f2 * chi * chi:+.6e}")

print("\n=== j=1: the first-order coefficient cancels exactly ===")
print("l  k      residual |f1|/f0 (integrals)   |f1|/f0 (finite diff)")
for (ll, kk) in [(1, 1.0), (3, -1.3), (6, 0.5)]:
    rep = theorems.f1_vanishing_check(ll, kk, a, mw)
    fd1 = theorems.expansion_fd(1, ll, kk, a, mw)
    print(f"{ll}  {kk:+.1f}   {rep.residual:.3e}                  {abs(fd1.f1) / fd1.f0:.3e}")

si = theorems.series_integrals_j1(2, 1.5, a, mw)
print("\nthe four radial integrals behind the j=1 cancellation at (l=2, k=1.5):")
print(f"  c0 = {si.c0:+.12e}   (equals the j=1 self integral)")
print(f"  c1 = {si.c1:+.12e}")
print(f"  d0 = {si.d0:+.12e}   (= c0 for k > 0)")
print(f"  d1 = {si.d1:+.12e}   (= c1/2 for k > 0 -> f1 = 0)")

print("\n=== uniqueness: strictly larger |chi| means strictly larger weight ===")
chi0 = 0.01 * k * k / mw
print(f"reference chi0 = {chi0:+.4f}; margins ratio(chi) - ratio(chi0):")
for t in (-0.05, -0.02, 0.02, 0.05):
    chi = t * k * k / mw
    rep = minimality_margin(Mode(1, l), k, chi, chi0, mw, a)
    marker = ">" if rep.margin > 0 else "<"
    print(f"  chi = {chi:+.4f} (|chi| {marker} |chi0|): margin = {rep.margin:+.3e}")
