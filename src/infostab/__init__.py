"""Numerical laboratory for parametric information-measure equations.

The package measures how far given data sits from solving the functional
equations behind degree-alpha entropies, and turns the stability theory's
explicit constants into executable certificates: residual sweeps on simplex,
triangle and cone lattices; candidate-solution fits; and pass/fail bound
checks with machine-readable reports.
"""

# the package republishes each module's public API: its __all__, or errors' exceptions
from .certifiers import *
from .domains import *
from .equations import *
from .errors import *
from .measures import *
from .models import *

__version__ = "0.1.0"
