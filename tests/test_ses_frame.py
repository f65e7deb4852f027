"""Differential test of the twisted frame and the type-block readers.

Both extension builders write their twisted frame with
``ar._frame_generators``, which maps each generator by ``ExtClass.apply``;
a summand's projection is its inclusion transposed;
``morphism_from_degreewise`` and ``class_of_sequence`` read their blocks
with ``homext.constant_blocks``; ``ar._left_inverse`` inverts B's pivot
rows once.  ``oracle_ses`` keeps the constructions these replaced, and
every sequence, class and twisted map must match it tuple for tuple, on
seeded sums of 1-3 atoms with and without torsion, with torsion bars up to
length 4 and up to length 500.  The two block readers are also held to the
full matrix, over Q, GF(2) and GF(3), on pairs of window labels and seeded
sums with torsion: ``constant_blocks`` of seeded generator images to the
product transpose(images) . generator_inverse taken and cut entry by entry
(``oracle_slots.offdiag_blocks``), and ``ExtClass.apply`` of every Ext
basis class and a seeded one to ``oracle_ses.offdiag_full`` times the
vector.
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
from zdinfty.decomp import label_to_object, label_window
from zdinfty.homext import (
    constant_blocks,
    ext_space,
    hom_space,
    morphism_from_parts,
    serre_twist_class,
    serre_twist_morphism,
)
from zdinfty.linalg import mat_vec, zeros
from zdinfty.objects import direct_sum_many, rank_one

import oracle_ses
from oracle_slots import offdiag_blocks, window_bounds
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


def _blocks_of_the_full_product(X, Y, images):
    """The four blocks of transpose(images) . generator_inverse, the product
    taken and cut entry by entry: the diagonal blocks here, the off-diagonal
    ones by ``oracle_slots.offdiag_blocks``."""
    F, Ginv = X.field, X.lattice.generator_inverse
    A = [[F.zero] * X.rank for _ in range(Y.rank)]
    for image, g in zip(images, Ginv):
        for i in range(Y.rank):
            for k in range(X.rank):
                A[i][k] = F.add(A[i][k], F.mul(image[i], g[k]))
    a00 = tuple(tuple(A[i][k] for k in range(X.p)) for i in range(Y.p))
    a11 = tuple(tuple(A[Y.p + i][X.p + k] for k in range(X.q)) for i in range(Y.q))
    return (a00, a11) + offdiag_blocks(A, X, Y)


@pytest.mark.parametrize("field,seed", [(QQ, 67), (GF(2), 68), (GF(3), 69)])
def test_class_and_constant_blocks_match_the_full_matrix(field, seed):
    rng = random.Random(seed)
    labels = [label_to_object(field, label) for label in label_window(2, 2, -1, 1)]
    pairs = [tuple(rng.sample(labels, 2)) for _ in range(40)]
    pairs += [(random_sum(field, rng), random_sum(field, rng)) for _ in range(60)]
    applied = 0
    for X, Y in pairs:
        # seeded generator images, and the images of each Ext class
        images = [tuple(field.of_int(rng.randint(-2, 2)) for _ in range(Y.rank))
                  for _ in range(X.rank)]
        assert constant_blocks(X, Y, images) == _blocks_of_the_full_product(X, Y, images)
        space = ext_space(X, Y)
        classes = list(space.basis) + ([random_class(space, rng)] if space.dim else [])
        for c in classes:
            full = oracle_ses.offdiag_full(c)
            dirs = [dir for _, dir in X.lattice.generators()]
            v = tuple(field.of_int(rng.randint(-2, 2)) for _ in range(X.rank))
            for w in dirs + [v]:
                assert c.apply(w) == mat_vec(field, full, w), (X, Y)
            blocks = constant_blocks(X, Y, [c.apply(dir) for dir in dirs])
            by_full = [mat_vec(field, full, dir) for dir in dirs]
            assert blocks == _blocks_of_the_full_product(X, Y, by_full)
            assert blocks[2:] == (c.h01, c.h10) and not any(map(any, blocks[0] + blocks[1]))
            applied += bool(X.rank and Y.rank and not c.is_zero())
    assert applied >= 30, applied
