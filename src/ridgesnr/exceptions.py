"""Exception types shared across the package."""


class RidgeSnrError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(RidgeSnrError, ValueError):
    """Inputs have inconsistent or invalid shapes."""


class DefinitenessError(RidgeSnrError, ValueError):
    """A matrix required to be (semi)definite is not, beyond tolerance."""


class ConvergenceError(RidgeSnrError, RuntimeError):
    """An iterative solver exhausted its iteration budget or stopped short of a root.

    Carries the last iterate and its residual for diagnosis.
    """

    def __init__(self, message: str, last_iterate: float | None = None,
                 residual: float | None = None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class DataFormatError(RidgeSnrError, ValueError):
    """A data file could not be parsed; message carries line/column context."""
