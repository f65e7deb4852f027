"""The library's input errors that no other in-process test reaches, each
forced once and pinned.

Each row hands one public function (or the check it reaches) an input it
must refuse: maps whose endpoints do not meet, a block matrix that leaves
the lattice, a degreewise map sending torsion into the lattice part, an
unvalidated torsion component that x does not commute with, torsion where
only lattices are allowed, lattices in different ambient spaces, division
by zero, malformed shapes and parameters.  The row pins the error
class the call raises and its whole message.
"""

import dataclasses

import pytest

from zdinfty import linalg
from zdinfty.ar import morphism_from_degreewise
from zdinfty.decomp import IndecLabel, label_to_object
from zdinfty.errors import (
    ComposabilityError, DimensionMismatch, NotLatticeMorphism, ShapeMismatch, ZdinftyError,
)
from zdinfty.fields import QQ, FieldSpec
from zdinfty.homext import (
    compose, eta, ext_space, hom_kx_space, identity_morphism, morphism_degreewise,
    morphism_from_parts, serre_gram, validate_morphism, yoneda_compose,
)
from zdinfty.lattice import lattice_intersect, lattice_sum
from zdinfty.objects import (
    TorsionPart, direct_sum_many, rank_one, rank_two, serre_twist, torsion_cyclic,
)
from zdinfty.singularity import y_linearity_bound
from zdinfty.window import WindowModule

F = QQ
X = rank_two(F, 1, 0)
VX = serre_twist(X)
T = torsion_cyclic(F, 2, 0)
F0, F0_LATE, F1 = rank_one(F, 0, 0), rank_one(F, 0, -1), rank_one(F, 1, 0)
ONE = ((F.one,),)


def _wing_class():
    """The one basis class of Ext(X, VX)."""
    return ext_space(X, VX).basis[0]


def _leaving():
    """The identity matrix from F0[0] to F0[-1]: it sends the degree-0
    generator outside S_0 of F0[-1], which is zero."""
    return morphism_from_parts(F0, F0_LATE, ONE, ())


def _incompatible_torsion():
    """T[1, 0] -> T[2, 0] on the generators: x kills the source generator
    but not its image."""
    return morphism_from_parts(torsion_cyclic(F, 1, 0), T, (), (), ONE)


def _torsion_into_the_lattice():
    """T[1, 0] -> F0[0] given degreewise: at degree 0 the torsion slot of
    T[1, 0] is sent onto the lattice slot of F0[0], and degree 1 is the top,
    where T[1, 0] has no slot."""
    return morphism_from_degreewise(torsion_cyclic(F, 1, 0), F0, {0: ONE, 1: ((),)})


def _class_after_incompatible_torsion():
    """The one basis class of Ext(T[2, 0], X) after the unvalidated
    T[1, 0] -> T[2, 0] of ``_incompatible_torsion``."""
    return yoneda_compose(ext_space(T, X).basis[0], _incompatible_torsion())


def _type_mixing():
    """An endomorphism of F[1, 0] whose type-0 block also feeds the type-1
    coordinate, so it does not commute with v = (x^m, 0)."""
    return morphism_from_parts(X, X, ((F.one,), (F.one,)), ())


ENDPOINTS = "^endpoints do not match for composition$"
AMBIENT = "^lattices in different ambient spaces$"

# (id, call, error class, message pattern)
ROWS = [
    ("compose-endpoints",
     lambda: compose(identity_morphism(X), identity_morphism(T)), ComposabilityError, ENDPOINTS),
    ("yoneda-class-after-class-endpoints",
     lambda: yoneda_compose(_wing_class(), _wing_class()), ComposabilityError, ENDPOINTS),
    ("class-after-morphism-endpoints",
     lambda: yoneda_compose(_wing_class(), identity_morphism(VX)), ComposabilityError, ENDPOINTS),
    ("morphism-after-class-endpoints",
     lambda: yoneda_compose(identity_morphism(X), _wing_class()), ComposabilityError, ENDPOINTS),
    ("yoneda-neither-map-nor-class",
     lambda: yoneda_compose(1, identity_morphism(X)), ComposabilityError,
     "^cannot compose int with Morphism$"),
    ("compose-source-leaves-the-lattice",
     lambda: compose(identity_morphism(F0_LATE), _leaving()), NotLatticeMorphism,
     "^composition source map does not preserve the lattice$"),
    ("degreewise-leaves-the-lattice",
     lambda: morphism_degreewise(_leaving(), 0), NotLatticeMorphism,
     "^morphism does not preserve the lattice$"),
    ("validate-leaves-the-filtration",
     lambda: validate_morphism(_leaving()), NotLatticeMorphism,
     "^block matrix does not preserve the filtration$"),
    ("validate-tt-of-the-wrong-shape",
     lambda: validate_morphism(dataclasses.replace(identity_morphism(X), tt=ONE)), ShapeMismatch,
     "^torsion component needs one scalar per pair of summands$"),
    ("validate-tt-not-commuting-with-x",
     lambda: validate_morphism(_incompatible_torsion()), ZdinftyError,
     "^torsion component does not commute with x$"),
    ("degreewise-torsion-into-the-lattice",
     _torsion_into_the_lattice, ShapeMismatch, "^torsion maps into the lattice part$"),
    ("class-after-incompatible-torsion",
     _class_after_incompatible_torsion, ZdinftyError,
     "^inconsistent torsion component in composition$"),
    ("hom-kx-on-torsion",
     lambda: hom_kx_space(T, X), NotLatticeMorphism, "^restricted hom needs torsion-free objects$"),
    ("eta-on-torsion",
     lambda: eta(T, identity_morphism(T)), ShapeMismatch,
     "^trace functional is defined on torsion-free objects$"),
    ("eta-on-a-map-not-into-the-twist",
     lambda: eta(X, identity_morphism(X)), ShapeMismatch,
     "^trace functional needs a map from F to its twist$"),
    ("serre-gram-on-torsion",
     lambda: serre_gram(X, T), ShapeMismatch, "^the pairing is computed for torsion-free objects$"),
    ("lattice-sum-across-ambients",
     lambda: lattice_sum(F0.lattice, F1.lattice), DimensionMismatch, AMBIENT),
    ("lattice-intersect-across-ambients",
     lambda: lattice_intersect(F0.lattice, X.lattice), DimensionMismatch, AMBIENT),
    ("mat-vec-short-vector",
     lambda: linalg.mat_vec(F, ((1, 2),), (1,)), DimensionMismatch,
     "^matrix has 2 columns, vector length 1$"),
    ("mm-inner-mismatch",
     lambda: linalg.mm(F, ((1, 2),), ((1,),), 2, 1), DimensionMismatch,
     "^cannot multiply 1x2 by 1x1$"),
    ("inverse-non-square",
     lambda: linalg.inverse(F, ((1, 2),)), DimensionMismatch, "^inverse of a non-square matrix$"),
    ("rank-one-type-two",
     lambda: rank_one(F, 2, 0), ZdinftyError, "^type must be 0 or 1, got 2$"),
    ("rank-two-m-zero",
     lambda: rank_two(F, 0, 0), ZdinftyError, "^rank-two objects need m >= 1, got 0$"),
    ("torsion-length-zero",
     lambda: TorsionPart.of([(0, 1)]), ZdinftyError,
     "^torsion summand needs positive length, got 0$"),
    ("empty-direct-sum",
     lambda: direct_sum_many([]), ZdinftyError, "^empty direct sum needs an explicit field$"),
    ("linearity-bound-on-torsion",
     lambda: y_linearity_bound(identity_morphism(T)), NotLatticeMorphism,
     "^linearity bound applies between torsion-free objects$"),
    ("linearity-bound-not-commuting-with-v",
     lambda: y_linearity_bound(_type_mixing()), ZdinftyError,
     "^the morphism does not commute with v$"),
    ("label-of-unknown-kind",
     lambda: label_to_object(F, IndecLabel("cone", (1,))), ZdinftyError,
     "^unknown label kind 'cone'$"),
    ("field-division-by-zero",
     lambda: F.div(F.one, F.zero), ZeroDivisionError, "^field division by zero$"),
    ("rationals-with-a-modulus",
     lambda: FieldSpec("Q", 3), ZdinftyError, "^rationals carry no characteristic parameter$"),
    ("window-degrees-descending",
     lambda: WindowModule(F, (1, 0), (1, 1), (ONE,)), ZdinftyError,
     "^window degrees must be listed in ascending order$"),
    ("window-dims-short",
     lambda: WindowModule(F, (0, 1), (1,), (ONE,)), ZdinftyError,
     "^window dimensions do not match the listed degrees$"),
    ("window-xmaps-short",
     lambda: WindowModule(F, (0, 1), (1, 1), ()), ZdinftyError,
     "^window x-maps do not match the listed degrees$"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_input_error_is_pinned(call, error, message):
    with pytest.raises(error, match=message) as raised:
        call()
    assert type(raised.value) is error
