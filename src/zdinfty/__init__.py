"""Exact computation in the hereditary pullback category of typed graded lattices.

Objects are direct sums of graded cyclic torsion modules and full-rank graded
lattices in a typed ambient space; the package computes Hom and Ext spaces
with explicit bases, the Serre-duality pairing, Krull-Schmidt decomposition,
almost split sequences and quiver windows, and the correspondence with graded
one-dimensional two-branch singularities.
"""

from .fields import QQ, GF, FieldSpec, parse_field
from .lattice import (
    GradedLattice,
    GradedVector,
    canonicalize,
    lattice_intersect,
    lattice_sum,
    membership,
)
from .objects import (
    CObject,
    InjectiveProfile,
    TorsionPart,
    direct_sum_many,
    injective_resolution,
    rank_one,
    rank_two,
    serre_twist,
    shift,
    sigma,
    torsion_cyclic,
    zero_object,
)
from .homext import (
    ExtClass,
    ExtSpace,
    HomSpace,
    Morphism,
    eta,
    euler_form,
    ext_space,
    hom_kx_space,
    hom_space,
    serre_check,
    serre_gram,
    serre_twist_class,
    serre_twist_morphism,
    yoneda_compose,
)
from .decomp import (
    Decomposition,
    IndecLabel,
    decompose,
    end_ring,
    filtration,
    identify,
    label_to_object,
)
from .ar import (
    AlmostSplitSequence,
    QuiverWindow,
    ShortExactSeq,
    almost_split,
    class_of_sequence,
    dot_export,
    extension_object,
    no_proj_no_inj_witness,
    quiver_window,
)
from .singularity import singularity_index, y_linearity_bound

__all__ = [
    "Decomposition",
    "IndecLabel",
    "decompose",
    "end_ring",
    "filtration",
    "identify",
    "label_to_object",
    "AlmostSplitSequence",
    "QuiverWindow",
    "ShortExactSeq",
    "almost_split",
    "class_of_sequence",
    "dot_export",
    "extension_object",
    "no_proj_no_inj_witness",
    "quiver_window",
    "singularity_index",
    "y_linearity_bound",
    "serre_twist_class",
    "serre_twist_morphism",
    "QQ",
    "GF",
    "FieldSpec",
    "parse_field",
    "GradedLattice",
    "GradedVector",
    "canonicalize",
    "lattice_intersect",
    "lattice_sum",
    "membership",
    "CObject",
    "InjectiveProfile",
    "TorsionPart",
    "direct_sum_many",
    "injective_resolution",
    "rank_one",
    "rank_two",
    "serre_twist",
    "shift",
    "sigma",
    "torsion_cyclic",
    "zero_object",
    "ExtClass",
    "ExtSpace",
    "HomSpace",
    "Morphism",
    "eta",
    "euler_form",
    "ext_space",
    "hom_kx_space",
    "hom_space",
    "serre_check",
    "serre_gram",
    "yoneda_compose",
]

__version__ = "0.1.0"
