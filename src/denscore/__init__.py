"""Density-aware core-set selection with coverage-bound diagnostics.

Select representative subsets of a dataset for labeling by trading off how
far points are from their nearest selected representative (classical
k-center coverage) against how densely populated each representative's
neighborhood is.  The package provides the selection algorithms, the
coverage geometry and bound reports that motivate them, several density
estimators, a calibration harness relating density to coverage, and a small
CLI for running file-based experiments.
"""

from . import coverage, data, density, evaluation, rng, selection
from .coverage import *
from .data import *
from .density import *
from .evaluation import *
from .rng import *
from .selection import *

__version__ = "0.1.0"

# each module's ``__all__`` is the one list of its public names
__all__ = ["__version__"]
__all__ += coverage.__all__
__all__ += data.__all__
__all__ += density.__all__
__all__ += evaluation.__all__
__all__ += rng.__all__
__all__ += selection.__all__
