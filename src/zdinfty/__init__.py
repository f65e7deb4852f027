"""Exact computation in the hereditary pullback category of typed graded lattices.

Objects are direct sums of graded cyclic torsion modules and full-rank graded
lattices in a typed ambient space; the package computes Hom and Ext spaces
with explicit bases, the Serre-duality pairing, Krull-Schmidt decomposition,
almost split sequences and quiver windows, and the correspondence with graded
one-dimensional two-branch singularities.
"""

from . import fields, lattice, objects, homext, decomp, ar, singularity
from .fields import *
from .lattice import *
from .objects import *
from .homext import *
from .decomp import *
from .ar import *
from .singularity import *

# each module names its own public names
__all__ = [name for module in (fields, lattice, objects, homext, decomp, ar, singularity)
           for name in module.__all__]

__version__ = "0.1.0"
