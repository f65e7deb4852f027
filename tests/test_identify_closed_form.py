"""``identify`` names a rank-two lattice with p = q = 1 by its canonical
steps: F[e2 - e1, -e1] exactly when there are two jumps e1 < e2 and the one
row of S_e1 has both entries nonzero.  ``oracle_identify`` keeps the
computation this replaced (the degrees of both pure coordinate vectors and
the jump list), and the two must give the same label, or raise the same
error with the same message, over Q, GF(2) and GF(3): on seeded (1, 1)
lattices from two or three generators, on rank-one and wing objects, and
on shapes that are not one indecomposable."""

import random
from collections import Counter

import pytest

from zdinfty.decomp import identify
from zdinfty.errors import NotFullRank, UnrecognizedShape
from zdinfty.fields import GF, QQ
from zdinfty.lattice import canonicalize
from zdinfty.objects import (
    CObject,
    TorsionPart,
    direct_sum_many,
    rank_one,
    rank_two,
    torsion_cyclic,
)

import oracle_identify

FIELDS = [QQ, GF(2), GF(3)]


def _outcome(name, X):
    try:
        return name(X)
    except UnrecognizedShape as exc:
        return ("raises", str(exc))


def _random_lattices(F, rng, p, q, count):
    out = []
    while len(out) < count:
        gens = [
            (rng.randint(-3, 3), tuple(F.of_int(rng.randint(-2, 2)) for _ in range(p + q)))
            for _ in range(rng.randint(2, 3))
        ]
        try:
            out.append(CObject(F, TorsionPart(()), canonicalize(F, gens, p, q)))
        except NotFullRank:
            continue
    return out


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_identify_matches_the_degree_reference(F):
    rng = random.Random(211)
    objs = _random_lattices(F, rng, 1, 1, 600)
    objs += _random_lattices(F, rng, 2, 0, 20) + _random_lattices(F, rng, 0, 2, 20)
    objs += [rank_two(F, m, a) for m in range(1, 5) for a in range(-2, 3)]
    objs += [rank_one(F, i, a) for i in (0, 1) for a in range(-2, 3)]
    objs += [torsion_cyclic(F, n, a) for n in range(1, 4) for a in range(-2, 3)]
    objs += [
        direct_sum_many([rank_one(F, 0, 1), rank_one(F, 1, 1)])[0],
        direct_sum_many([rank_one(F, 0, 0), rank_one(F, 1, 2)])[0],
        direct_sum_many([rank_two(F, 1, 0), rank_one(F, 0, 0)])[0],
        direct_sum_many([rank_one(F, 0, 0), torsion_cyclic(F, 1, 0)])[0],
    ]
    seen = Counter()
    for X in objs:
        got = _outcome(identify, X)
        assert got == _outcome(oracle_identify.identify, X), X
        if X.rank == 2 and X.p == 1:
            seen[got[1] if isinstance(got, tuple) else got.kind] += 1
    # the label and both messages of the closed form are reached
    assert set(seen) == {
        "rank_two", "pure-coordinate degrees disagree", "no classified label matches rank 2"
    }, seen
    assert min(seen.values()) >= 20, seen
