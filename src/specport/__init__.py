"""Frequency-domain mean-variance portfolio optimization with augmented complex statistics.

The library decomposes multivariate return series on a small grid of angular
frequencies, estimates the centred first and second moments of the projected
coefficients (mean, covariance, pseudo-covariance, dual-frequency blocks),
solves the variance-targeted allocation problem in closed form, and reads the
resulting time-varying weight path back into the time domain for backtesting
against classical baselines.

The package exports ``__version__`` and exactly the ``__all__`` of each of
its modules ``basis``, ``moments``, ``synthesis``, ``optimize``, ``backtest``
and ``errors``: a public name is declared once, in its own module.
"""

__version__ = "0.1.0"

from . import backtest, basis, errors, moments, optimize, synthesis
from .backtest import *
from .basis import *
from .errors import *
from .moments import *
from .optimize import *
from .synthesis import *

__all__ = [
    "__version__",
    *basis.__all__,
    *moments.__all__,
    *synthesis.__all__,
    *optimize.__all__,
    *backtest.__all__,
    *errors.__all__,
]
