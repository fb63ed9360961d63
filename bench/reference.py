"""Independent reference check of radial integrals, with scipy.

Usage: ``python3 bench/reference.py SAMPLE_JSON RESULT_JSON``

SAMPLE_JSON holds cells {j, l, k, K, a, N_k, N_K, M} as the library computed
them.  Each N and M is recomputed with ``scipy.special.spherical_jn`` and
``scipy.integrate.quad`` (epsabs=0), sharing no code with the library.  A
cell fails when N_k or N_K is off by more than 1e-10 relative, or M by more
than 1e-10 of sqrt(N_k N_K) (M itself can pass through zero).  Runs in its
own process, after the timed loop, so scipy never loads into a measured one.
"""

from __future__ import annotations

import json
import math
import sys
import warnings

from scipy.integrate import IntegrationWarning, quad
from scipy.special import spherical_jn

TOL = 1e-10


def _u(l, x):
    """u_l(x) = [(l+1) j_{l-1}(x) - l j_{l+1}(x)] / (2l+1)."""
    return ((l + 1) * spherical_jn(l - 1, x) - l * spherical_jn(l + 1, x)) / (2 * l + 1)


def _integral(j, l, k, K, a):
    if j == 2:
        def f(r):
            return r * r * spherical_jn(l, k * r) * spherical_jn(l, K * r)
    else:
        ll1 = l * (l + 1)

        def f(r):
            return (spherical_jn(l, k * r) * spherical_jn(l, K * r)
                    + k * K * r * r * _u(l, k * r) * _u(l, K * r) / ll1)
    value, _ = quad(f, 0.0, a, epsabs=0.0, epsrel=1e-13, limit=500)
    return value


def check(cell):
    """Relative errors (N_k, N_K, M) of one library cell against scipy."""
    j, l, k, K, a = cell["j"], cell["l"], cell["k"], cell["K"], cell["a"]
    n_k = _integral(j, l, abs(k), abs(k), a)
    n_K = _integral(j, l, abs(K), abs(K), a)
    m = _integral(j, l, k, K, a)
    return (
        abs(cell["N_k"] - n_k) / n_k,
        abs(cell["N_K"] - n_K) / n_K,
        abs(cell["M"] - m) / math.sqrt(n_k * n_K),
    )


def main(argv):
    with open(argv[1], encoding="utf-8") as fh:
        cells = json.load(fh)
    worst, failed = 0.0, []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for cell in cells:
            errors = check(cell)
            worst = max(worst, *errors)
            if max(errors) > TOL:
                failed.append({"cell": cell, "rel_errors": errors})
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump({"cells": len(cells), "failed": failed, "max_rel_error": worst}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
