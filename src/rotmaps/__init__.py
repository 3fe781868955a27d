"""Rotation maps of regular graphs.

Build consistent rotation maps for standard families, compose them over
Cartesian (box) products cloud by cloud, read maps off adjacency matrices,
solve for consistent labelings of arbitrary regular graphs, and export the
dart shift permutation that a coined walk's move step uses.  The package
re-exports exactly each submodule's ``__all__``, so a new public name goes there.
"""

from . import adjacency, core, exceptions, families, product, shift, solver
from .adjacency import *
from .core import *
from .exceptions import *
from .families import *
from .product import *
from .shift import *
from .solver import *

__version__ = "0.1.0"

__all__ = [*adjacency.__all__, *core.__all__, *exceptions.__all__, *families.__all__,
           *product.__all__, *shift.__all__, *solver.__all__]
