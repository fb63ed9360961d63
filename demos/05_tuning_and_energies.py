#!/usr/bin/env python3
"""From a tuning constraint to source energies.

The tuning set collects the Lagrange multipliers at which the reactive
power of the optimized current vanishes.  The physical constraint function
comes from a propagator model outside this library, so here it is a
synthetic but representative curve; the machinery -- root bracketing,
admissibility filtering, selection of the smallest-magnitude multiplier,
and the energy comparison -- is exactly the production path.
"""

from tunedsource import tuning
from tunedsource.model import Mode, SourceSpec, Substrate, mode_ratio, source_energy, tuned_wavenumber

s = Substrate(epsilon_r=0.5, mu_r=1.0, omega=1.0, a=2.0)
print(f"substrate: k = {s.k:+.4f} (DPS), a = {s.a}, mu*omega = {s.mu_omega}")

# synthetic tuning constraint with three zeros, one of them inadmissible
def g(chi):
    return (chi + 0.35) * (chi - 0.15) * (chi - 0.8)

xi = tuning.find_constraint_roots(g, -1.0, 1.0, 401, 1e-11, k=s.k, mu_omega=s.mu_omega)
print("\n=== tuning set on [-1, 1] ===")
print(f"admissible roots: {[round(r, 6) for r in xi.roots]}")
print(f"excluded (K^2 <= 0): {[round(r, 6) for r in xi.excluded]}")
chi0 = tuning.select_chi0(xi)
print(f"selected chi0 (smallest |chi|): {chi0:+.6f}")

# prescribed multipole amplitudes
spec = SourceSpec({
    Mode(1, 1, 0): 1.0 + 0.0j,
    Mode(2, 1, 1): 0.5 + 0.5j,
    Mode(2, 2, 0): 1.0j,
})

def coefficients(chi):
    t = tuned_wavenumber(s.k, s.mu_omega, chi)
    return {
        mode: mode_ratio(mode, s.k, t.K, s.a)
        for mode in spec.amplitudes
    }

e_untuned = source_energy(spec, coefficients(0.0))
print("\n=== energies (per-mode normalization fixed to 1) ===")
print(f"untuned minimum energy: {e_untuned:.10f}")
print("\nchi        E_tuned        E_tuned - E_untuned")
for chi in sorted(set(list(xi.roots) + [-0.6, 0.4])):
    e = source_energy(spec, coefficients(chi))
    marker = "  <- chi0" if chi == chi0 else ""
    print(f"{chi:+.4f}   {e:.10f}   {e - e_untuned:+.3e}{marker}")

print("\nevery tuned energy sits above the untuned minimum, and among the")
print("tuning-set members the smallest |chi| gives the smallest energy.")

e_chi0 = source_energy(spec, coefficients(chi0))
others = [source_energy(spec, coefficients(c)) for c in xi.roots if c != chi0]
assert all(e_chi0 < e for e in others)
assert e_untuned <= e_chi0
print("checked: E_untuned <= E(chi0) < E(other tuning-set members)")
