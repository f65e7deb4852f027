"""The Krull-Schmidt sweep finds births from counts and short vectors.

``decomp._lattice_pieces`` tests a row of S_e on its image ann0 v[:p], of
length r - dim S_e, against the surviving bars' columns, starts as many
bars as dim S_e - dim A_e - dim C_e - #live, and runs the F0 and F1 starts
only where dim A_e or dim C_e grows past the lines and deaths so far.
``oracle_decomp.lattice_pieces`` keeps the sweep that rebuilt an ambient
span at every jump, on Fraction rows, and the two must give the same pieces
entry for entry over Q, GF(2) and GF(3): on seeded conjugated sums up to
lattice rank 12, on isotypic powers, on lattices from random generators,
and on sums where a bar dies at the jump where another is born.  On
F[2,0]^k no vector of the ambient length p + q reaches an elimination.
"""

import random

import pytest

from zdinfty import decomp, linalg
from zdinfty.errors import NotFullRank
from zdinfty.fields import GF, QQ
from zdinfty.lattice import canonicalize
from zdinfty.objects import direct_sum_many, rank_one, rank_two

import oracle_decomp

FIELDS = [QQ, GF(2), GF(3)]


def _conjugated(F, rng, parts):
    """The lattice of the sum of the parts, conjugated by random
    type-diagonal invertible matrices with entries in [-2, 2]."""
    L = direct_sum_many(parts)[0].lattice
    u0 = oracle_decomp.random_invertible(F, rng, L.p) if L.p else ()
    u1 = oracle_decomp.random_invertible(F, rng, L.q) if L.q else ()
    gens = [
        (e, linalg.mat_vec(F, u0, d[: L.p]) + linalg.mat_vec(F, u1, d[L.p:]))
        for e, d in L.generators()
    ]
    return canonicalize(F, gens, L.p, L.q)


def _random_lattices(F, rng, count):
    out = []
    while len(out) < count:
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        gens = [
            (rng.randint(-2, 2), tuple(F.of_int(rng.randint(-2, 2)) for _ in range(p + q)))
            for _ in range(p + q + rng.randint(0, 2))
        ]
        try:
            out.append(canonicalize(F, gens, p, q))
        except NotFullRank:
            continue
    return [L for L in out if L.rank]


def _coincident(pieces) -> bool:
    """Whether some bar dies at the jump where another is born."""
    bars = [label.params for label, _ in pieces if label.kind == "rank_two"]
    return bool({m - a for m, a in bars} & {-a for _, a in bars})


def _lattices(F, rng):
    shapes = [
        (r2, t, r1) for r2 in range(7) for t in range(2) for r1 in range(7) if 0 < 2 * r2 + r1 <= 12
    ]
    lats = [oracle_decomp.conjugated_sum(F, rng, rng.choice(shapes))[0].lattice for _ in range(40)]
    lats += [direct_sum_many([rank_two(F, 2, 0)] * k)[0].lattice for k in range(1, 7)]
    lats += [_conjugated(F, rng, [rank_two(F, 2, 0)] * k) for k in (2, 3, 4)]
    # a bar dies where another is born, beside lines born there too
    for _ in range(12):
        a, m = rng.randint(-2, 2), rng.randint(1, 3)
        parts = [rank_two(F, m, a), rank_two(F, rng.randint(1, 3), a - m)]
        parts += [rank_one(F, rng.randint(0, 1), a - m) for _ in range(rng.randint(0, 2))]
        parts += [rank_two(F, m, a)] * rng.randint(0, 1)
        lats.append(_conjugated(F, rng, parts))
    return lats + _random_lattices(F, rng, 40)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_sweep_matches_the_span_rebuilding_reference(F):
    rng = random.Random(223)
    coincident = 0
    for L in _lattices(F, rng):
        got = decomp._lattice_pieces(L)
        assert got == oracle_decomp.lattice_pieces(L), L
        coincident += _coincident(got)
    assert coincident >= 12, coincident


@pytest.mark.parametrize("F", [QQ, GF(2)], ids=str)
@pytest.mark.parametrize("k", range(1, 7))
def test_isotypic_power_adds_no_ambient_vector(F, k, monkeypatch):
    L = direct_sum_many([rank_two(F, 2, 0)] * k)[0].lattice
    L.annihilator_at(0)  # the dual rows are the lattice's, built before the sweep
    lengths = []
    add = linalg.Echelon.add

    def counted(self, v):
        lengths.append(len(v))
        return add(self, v)

    monkeypatch.setattr(linalg.Echelon, "add", counted)
    pieces = decomp._lattice_pieces(L)
    assert [label for label, _ in pieces] == [decomp.rank_two_label(2, 0)] * k
    assert lengths and L.p + L.q not in lengths, lengths
