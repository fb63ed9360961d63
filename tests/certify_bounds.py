"""Certify the boundedness claim on acceptance criterion 03's grid, without numpy.

For every draw (j, l, k, a, mu_omega) of criterion 03 it evaluates
``theorems.boundedness_margin`` at each chi of ``theorems.default_chi_grid``,
and for j = 2 the closed-form coefficients of ``theorems.expansion_j2``.  It
prints one line per draw (the least margin / scale over the grid, the chi = 0
margin / scale, and f0 and f2 for j = 2, each to 17 significant digits), then
a line with the number of cells, of failing cells (criterion 03's bounds) and
a SHA-256 of every report.  It exits 1 if a cell fails.

None of this loads numpy, so an interpreter without it prints the same
bytes as one with it.  Run it from anywhere the package imports:

    PYTHONPATH=src python tests/certify_bounds.py
"""

import hashlib
import itertools
import math
import sys

from tunedsource import theorems
from tunedsource.model import Mode

GRID = ((1, 2), range(1, 7), (0.5, 1.0, 2.0, 5.0, -0.5, -1.0, -2.0, -5.0), (0.5, 1.0, math.pi, 5.0), (0.5, 1.0, 2.0))

cells, bad, digest = 0, 0, hashlib.sha256()
for j, l, k, a, mw in itertools.product(*GRID):
    ratios = {}
    for chi in theorems.default_chi_grid(k, mw):
        rep = theorems.boundedness_margin(Mode(j, l), k, chi, mw, a)
        digest.update(repr(rep).encode())
        ratios[chi] = rep.margin / rep.scale
        cells += 1
        bad += ratios[chi] < -1e-9 or (chi == 0.0 and abs(ratios[chi]) > 1e-10)
    line = f"{j} {l} {k!r} {a!r} {mw!r} min {min(ratios.values()):.17g} at0 {ratios[0.0]:.17g}"
    if j == 2:
        cf = theorems.expansion_j2(l, k, a, mw)
        digest.update(repr(cf).encode())
        line += f" f0 {cf.f0:.17g} f2 {cf.f2:.17g}"
    print(line)
print(f"cells {cells} failing {bad} sha256 {digest.hexdigest()}")
if bad:
    sys.exit(1)
