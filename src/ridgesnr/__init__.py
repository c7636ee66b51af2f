"""Blind SNR estimation for linear models with left-correlated Gaussian designs.

The estimator inverts deterministic (random-matrix) predictions of the
normalized ridge-regression cost, evaluated at a small grid of penalties, to
recover the signal and noise variances from a single received vector.

The package exports each public name of its modules from that module's
``__all__``, which is the one list of them.
"""

from . import estimator, exceptions, harness, rmt, scenarios
from .estimator import *
from .exceptions import *
from .harness import *
from .rmt import *
from .scenarios import *

__version__ = "0.1.0"

__all__ = [*estimator.__all__, *exceptions.__all__, *harness.__all__, *rmt.__all__,
           *scenarios.__all__, "__version__"]
