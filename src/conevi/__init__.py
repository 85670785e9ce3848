"""conevi: monotone variational inequalities and complementarity problems
over separable cones.

Provides the exact projection method, two Galerkin subspace approximations
(intersection-projected and two-projection), certified contraction factors
and a-priori error bounds, optimality certificates, and an interior-point
solver for the identity-plus-low-rank reduced problem.

The public API is the union of the `__all__` lists of the modules below.
"""

from . import basis, cones, generate, operators, projective, solvers, transforms
from .basis import *
from .cones import *
from .generate import *
from .operators import *
from .projective import *
from .solvers import *
from .transforms import *

__version__ = "0.1.0"

__all__ = sorted(name for module in (basis, cones, generate, operators, projective, solvers,
                                     transforms) for name in module.__all__)
