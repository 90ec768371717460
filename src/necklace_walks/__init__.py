"""Continuous-time quantum walks on necklace graphs.

A necklace is a ring of K identical pearls (small graphs with designated
root vertices).  The package builds such graphs, block-diagonalizes their
adjacency Hamiltonians into K momentum sectors of pearl size, and analyzes
the walk's limiting distribution, total-variation convergence and mixing
time, validating everything against brute-force references.

Each module declares its public names in its own ``__all__``; the package
re-exports exactly those.
"""

from . import bloch, comb_analytics, dynamics, eig, errors, graphs, mixing, oracle
from .bloch import *
from .comb_analytics import *
from .dynamics import *
from .eig import *
from .errors import *
from .graphs import *
from .mixing import *
from .oracle import *

__version__ = "0.1.0"

__all__ = []
__all__ += bloch.__all__
__all__ += comb_analytics.__all__
__all__ += dynamics.__all__
__all__ += eig.__all__
__all__ += errors.__all__
__all__ += graphs.__all__
__all__ += mixing.__all__
__all__ += oracle.__all__
