"""Differential test of the twisted frame and the type-block readers.

Both extension builders write their twisted frame with
``ar._frame_generators``; a summand's projection is its inclusion
transposed; ``morphism_from_degreewise`` reads its blocks with
``homext.diag_blocks``; ``ar._left_inverse`` inverts B's pivot rows once.
``oracle_ses`` keeps the constructions these replaced, and every sequence,
class and twisted map must match it tuple for tuple, on seeded sums of 1-3
atoms with and without torsion, with torsion bars up to length 4 and up to
length 500.
"""

import random

import pytest

from zdinfty.ar import (
    class_of_sequence,
    extension_object,
    morphism_from_degreewise,
)
from zdinfty.errors import ShapeMismatch, ZdinftyError
from zdinfty.fields import GF, QQ
from zdinfty.homext import (
    ext_space,
    hom_space,
    morphism_from_parts,
    serre_twist_class,
    serre_twist_morphism,
)
from zdinfty.linalg import zeros
from zdinfty.objects import direct_sum_many, rank_one

import oracle_ses
from oracle_slots import window_bounds
from test_bars import random_class, random_sum


def _match_the_replaced_builders(field, rng, max_bar, rounds):
    """Build every sequence of ``rounds`` seeded pairs both ways; count the
    nonsplit middles each builder made."""
    built = {"lattice": 0, "window": 0}
    for _ in range(rounds):
        X, Y = random_sum(field, rng, max_bar), random_sum(field, rng, max_bar)
        assert oracle_ses.split_sequence(Y, X) == oracle_ses.split_sum(Y, X)
        for f in hom_space(X, Y).basis:
            assert serre_twist_morphism(f) == oracle_ses.serre_twist_morphism(f)
        space = ext_space(X, Y)
        classes = list(space.basis) + ([random_class(space, rng)] if space.dim else [])
        for c in classes:
            seq = extension_object(c)
            assert seq == oracle_ses.extension_object(c)
            cls = class_of_sequence(seq.inject, seq.surject)
            assert cls == oracle_ses.class_of_sequence(seq.inject, seq.surject) == c
            assert serre_twist_class(c) == oracle_ses.serre_twist_class(c)
            for m in (seq.inject, seq.surject):
                assert serre_twist_morphism(m) == oracle_ses.serre_twist_morphism(m)
            if not c.is_zero():
                torsion_free = X.is_torsion_free() and Y.is_torsion_free()
                built["lattice" if torsion_free else "window"] += 1
    return built


@pytest.mark.parametrize("field,seed", [(QQ, 61), (GF(2), 62), (GF(3), 63)])
def test_sequences_match_the_replaced_builders(field, seed):
    built = _match_the_replaced_builders(field, random.Random(seed), 4, 150)
    assert min(built.values()) >= 20, built


@pytest.mark.parametrize("field,seed", [(QQ, 64), (GF(2), 65), (GF(3), 66)])
def test_long_bars_match_the_replaced_builders(field, seed):
    # torsion bars up to length 500: the middle's window lists its event
    # degrees, the reference's every degree of [lo, hi]
    built = _match_the_replaced_builders(field, random.Random(seed), 500, 30)
    assert built["window"] >= 15, built


def test_degreewise_type_swap_is_rejected():
    # the top-degree map of F0[0] + F1[0] to itself that swaps the two types
    Z = direct_sum_many([rank_one(QQ, 0, 0), rank_one(QQ, 1, 0)])[0]
    lo, hi = window_bounds(Z)
    swap = ((0, 1), (1, 0))
    with pytest.raises(ShapeMismatch, match="not type-diagonal"):
        morphism_from_degreewise(Z, Z, {d: swap for d in range(lo, hi + 1)})


def test_inclusion_without_retraction_is_rejected():
    Y, X = rank_one(QQ, 0, 0), rank_one(QQ, 0, 1)
    seq = oracle_ses.split_sequence(Y, X)
    E = seq.middle
    inject = morphism_from_parts(Y, E, zeros(QQ, E.p, Y.p), seq.inject.a11)
    with pytest.raises(ZdinftyError, match="no type-diagonal retraction"):
        class_of_sequence(inject, seq.surject)
