"""Coordinate Bethe ansatz for the isotropic six-vertex transfer matrix and
the periodic XXZ chain, with brute-force verification oracles."""

from .ansatz import *  # each layer's __all__ is republished as the package's
from .basis import *
from .errors import *
from .functions import *
from .oracle import *
from .solver import *
from .transfer import *
from .xxz import *

__version__ = "0.1.0"
