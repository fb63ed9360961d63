"""Numerical certification of tuned minimum-energy radiating sources.

A spherical current source embedded in a (meta)material ball radiates a
prescribed multipole field while minimizing its L2-norm ("source energy"),
optionally under the additional constraint of vanishing reactive power
("tuning").  This library evaluates the spherical-Bessel radial integrals
behind the per-mode energy weights and certifies, on dense parameter grids,
that

* the untuned minimum energy lower-bounds every tuned minimum
  (a Cauchy-Schwarz inequality between radial kernels),
* the admissible tuning multiplier of smallest magnitude gives the unique
  global minimum among tuned solutions, and
* the small-multiplier expansion of the per-mode weight has no linear term,
  with closed-form zeroth and second-order coefficients for the j=2 family.

Modules: ``scalar`` (Bessel rows and Lommel closed forms on Python
floats), ``specfun`` (array Bessel kernels), ``quadrature`` (adaptive
oscillatory integration), ``model`` (substrates, modes, the closed-form
cell, energies), ``tuning`` (constraint roots), ``theorems`` (the
quadrature oracle, margin and expansion certification), ``cli`` (batch
reports).

No module imports numpy when it is imported.  The production path
(``scalar``, ``model``, ``tuning``, ``cli``) never loads it, and the oracle
layer (``specfun``, ``quadrature``, ``theorems``) loads it on its first Bessel
table or integration, so a boundedness certificate from ``theorems`` runs
without it.  Importing the package loads ``errors``, ``scalar`` and
``model``; every other module loads on first access, as
``tunedsource.theorems`` or through an import (``python -m tunedsource``
imports ``cli``).
"""

import importlib

from . import model, scalar
from .errors import (
    ConfigError,
    ConstraintEvaluationError,
    ConvergenceError,
    DegenerateModeError,
    EvanescentRegimeError,
    IllConditionedExpansionError,
    IncompleteSourceSpecError,
    IntegrandDomainError,
    InvalidInputError,
    NoTunedSolutionError,
    SingularityError,
    TunedSourceError,
    UnderflowError,
    UnsupportedMediumError,
)
from .model import Mode, RadialIntegrals, SourceSpec, Substrate, TuningState

__version__ = "0.1.0"

_LAZY = ("cli", "quadrature", "specfun", "theorems", "tuning")


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "scalar",
    "specfun",
    "quadrature",
    "model",
    "tuning",
    "theorems",
    "cli",
    "Mode",
    "Substrate",
    "TuningState",
    "RadialIntegrals",
    "SourceSpec",
    "TunedSourceError",
    "InvalidInputError",
    "SingularityError",
    "IntegrandDomainError",
    "ConvergenceError",
    "UnsupportedMediumError",
    "EvanescentRegimeError",
    "DegenerateModeError",
    "IncompleteSourceSpecError",
    "NoTunedSolutionError",
    "ConstraintEvaluationError",
    "IllConditionedExpansionError",
    "UnderflowError",
    "ConfigError",
    "__version__",
]
