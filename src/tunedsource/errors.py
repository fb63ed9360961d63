"""Exception vocabulary shared across the library.

Every error raised by the public API is a subclass of :class:`TunedSourceError`,
so callers can catch one type at the boundary (the CLI maps them to exit codes).
"""


class TunedSourceError(Exception):
    """Base class for all library errors."""


class InvalidInputError(TunedSourceError, ValueError):
    """An argument is outside the documented domain (non-finite, wrong sign, ...)."""


class SingularityError(InvalidInputError):
    """Evaluation requested exactly at a pole of the function."""


class IntegrandDomainError(TunedSourceError):
    """The integrand returned a non-finite sample inside the integration interval."""


class ConvergenceError(TunedSourceError):
    """Adaptive refinement, or the near-diagonal Lommel series, exhausted its budget.

    Carries the best available estimate in :attr:`result`.
    """

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


class UnsupportedMediumError(TunedSourceError, ValueError):
    """Substrate outside the supported class (needs epsilon_r * mu_r > 0)."""


class EvanescentRegimeError(TunedSourceError, ValueError):
    """Requested tuning would make the tuned wavenumber imaginary (K^2 <= 0)."""


class DegenerateModeError(TunedSourceError):
    """The cross integral vanished, so the mode coefficient is undefined."""


class IncompleteSourceSpecError(TunedSourceError, KeyError):
    """A prescribed amplitude has no matching mode coefficient."""


class NoTunedSolutionError(TunedSourceError):
    """The tuning constraint has no root on the searched interval."""


class ConstraintEvaluationError(TunedSourceError):
    """The tuning-constraint function returned a non-finite value."""


class UnderflowError(TunedSourceError):
    """k^2, K^2 - k^2 or k a underflows to 0, so a tuning or a closed form would come out wrong or divide by zero."""


class IllConditionedExpansionError(TunedSourceError):
    """The expansion denominator is non-positive, or underflows to 0 at high order l >> k a."""


class ConfigError(TunedSourceError, ValueError):
    """A run configuration failed validation; message carries the field path."""
