"""A direct sum keeps one place per summand, not an embedding matrix.

``objects.sum_layout`` gives each input the coordinates of the sum its
ambient coordinates land on.  ``ar._frame_generators`` writes Y's directions
at Y's coordinates, and X's at X's with A dir at Y's; ``homext.sum_inclusion``
and ``sum_projection`` read their unit blocks off the place.
``oracle_ses`` keeps the r x rank unit-matrix embeddings these replaced and
the frame (embX + embY A) dir built from them, and frames and summand maps
must match them tuple for tuple over Q, GF(2) and GF(3), on seeded classes
between sums with torsion, conjugated sums and torsion-heavy sums.  Neither
the layout nor the frame builds a matrix: ``sum_layout`` makes no
``unit_matrix`` call and ``_frame_generators`` no ``linalg.mm`` call.  A
class that glues torsion places its frame with ``objects.sum_places``
alone, and makes no ``sum_layout`` call.
"""

import random

import pytest

from zdinfty import ar, linalg
from zdinfty.fields import GF, QQ
from zdinfty.homext import ext_space, sum_inclusion, sum_projection
from zdinfty.objects import direct_sum_many, rank_one, rank_two, sum_layout, torsion_cyclic

import oracle_ses
from oracle_decomp import _embedding, conjugated_sum
from test_bars import random_class, random_sum

FIELDS = [QQ, GF(2), GF(3)]


def _inputs(F, rng):
    """Seeded sums of 1-3 atoms with torsion, conjugated sums of 1-4
    summands, and sums of 2-6 torsion summands with at most one lattice
    atom."""
    objs = [random_sum(F, rng) for _ in range(12)]
    objs += [
        conjugated_sum(F, rng, (rng.randint(0, 2), rng.randint(0, 1), rng.randint(1, 2)))[0]
        for _ in range(8)
    ]
    for _ in range(8):
        parts = [
            torsion_cyclic(F, rng.randint(1, 4), rng.randint(-2, 2))
            for _ in range(rng.randint(2, 6))
        ]
        if rng.random() < 0.5:
            parts.append(rng.choice([rank_one(F, 0, 1), rank_two(F, 2, -1)]))
        objs.append(direct_sum_many(parts)[0])
    return objs


def _frame(c):
    """The layout of Y + X and the frame's generators on it, as
    ``ar._frame_extension`` places them."""
    p, q, torsion, (inY, inX) = sum_layout([c.dst, c.src])
    return p, q, torsion, inY, inX, ar._frame_generators(c, p + q, inY[0], inX[0])


def _classes(X, Y, rng):
    space = ext_space(X, Y)
    return [oracle_ses.zero_class(X, Y), *space.basis] + ([random_class(space, rng)] if space.dim else [])


def _assert_maps_match(Z, factor, place, tmap):
    embed = _embedding(Z.field, Z.rank, place, factor.rank)
    assert sum_inclusion(Z, factor, place, tmap) == oracle_ses.sum_inclusion(
        Z, factor, embed, tmap
    )
    assert sum_projection(Z, factor, place, tmap) == oracle_ses.sum_projection(
        Z, factor, embed, tmap
    )


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_frame_matches_the_embedding_matrices(F):
    rng = random.Random(131)
    objs = _inputs(F, rng)
    twisted = 0
    for _ in range(60):
        X, Y = rng.choice(objs), rng.choice(objs)
        for c in _classes(X, Y, rng):
            p, q, torsion, (placeY, tY), (placeX, tX), gens = _frame(c)
            want = oracle_ses.twisted_frame(c)
            embY = _embedding(F, p + q, placeY, Y.rank)
            embX = _embedding(F, p + q, placeX, X.rank)
            assert (p, q, torsion, (embY, tY), (embX, tX), gens) == want, (X, Y, c)
            twisted += any(map(any, c.h01 + c.h10))
    assert twisted >= 30, twisted


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_summand_maps_match_the_embedding_matrices(F):
    rng = random.Random(137)
    objs = _inputs(F, rng)
    for _ in range(40):
        inputs = rng.sample(objs, rng.randint(1, 4))
        Z, layout = direct_sum_many(inputs)
        for factor, (place, tmap) in zip(inputs, layout):
            _assert_maps_match(Z, factor, place, tmap)
    # the inclusion and projection of a frame middle, on its own lattice
    for _ in range(30):
        X, Y = rng.choice(objs), rng.choice(objs)
        c = _classes(X, Y, rng)[-1]
        if any(map(any, c.tor)):
            continue
        E, _ = ar.extension_middle(c)
        *_, inY, inX, _ = _frame(c)
        _assert_maps_match(E, Y, *inY)
        _assert_maps_match(E, X, *inX)


def test_layout_and_frame_build_no_matrix(monkeypatch):
    counts = {"unit_matrix": 0, "mm": 0}

    def counted(name):
        real = getattr(linalg, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    rng = random.Random(139)
    pairs = [(random_sum(QQ, rng), random_sum(QQ, rng)) for _ in range(20)]
    classes = [c for X, Y in pairs for c in _classes(X, Y, rng)]
    for name in counts:
        monkeypatch.setattr(linalg, name, counted(name))
    for X, Y in pairs:
        sum_layout([X, Y, X])
    assert counts["unit_matrix"] == 0
    for c in classes:
        _frame(c)
    assert counts == {"unit_matrix": 0, "mm": 0}
    assert any(X.rank and Y.rank for X, Y in pairs)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_gluing_middle_merges_no_torsion(F, monkeypatch):
    # the window sweep finds the middle's torsion, so a gluing class places
    # its frame with ``objects.sum_places`` and merges neither end's torsion
    calls = []
    layout = ar.sum_layout

    def counted(objs):
        calls.append(objs)
        return layout(objs)

    monkeypatch.setattr(ar, "sum_layout", counted)
    for n in (1, 3, 24):
        assert ar.almost_split(torsion_cyclic(F, n, 0)).middle.torsion.summands
    assert calls == []
    ar.almost_split(rank_two(F, 2, 0))  # a class with no torsion part takes the split frame
    assert len(calls) == 1
