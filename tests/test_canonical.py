"""Differential test of ``lattice.canonicalize`` against the per-jump loop.

``oracle_canonical.canonicalize`` row-reduces the accumulated basis again at
every jump; ``canonicalize`` keeps one ``linalg.Echelon`` across the jumps.
Both must give the same steps, entry for entry, with every entry exact, or
raise the same error, on seeded generator lists with repeated jumps, zero and
redundant directions and Fraction entries, and on conjugated sums drawn as
the krull-schmidt benchmark draws them.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from zdinfty import linalg
from zdinfty.errors import DimensionMismatch, NotFullRank
from zdinfty.fields import GF, QQ
from zdinfty.lattice import GradedLattice, canonicalize
from zdinfty.objects import direct_sum_many, rank_one, rank_two

import oracle_canonical
import oracle_rref
from oracle_decomp import random_invertible

FIELDS = [QQ, GF(2), GF(3)]


def _exact(F, L):
    """The steps of a lattice after checking that every entry is exact: an
    int in [0, p) over F_p, over Q an int when integral, else a Fraction."""
    for _, basis in L.steps:
        for row in basis:
            for a in row:
                if F.p is None:
                    assert type(a) is (int if a.denominator == 1 else Fraction)
                else:
                    assert type(a) is int and 0 <= a < F.p
    return L.steps


def _outcome(fn, F, gens, p, q):
    try:
        L = fn(F, gens, p, q)
    except (DimensionMismatch, NotFullRank) as exc:
        return type(exc)
    return L


def _scalar(F, rng):
    if F.p is None and rng.random() < 0.4:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return F.of_int(rng.randint(-3, 3))


def _random_gens(F, rng, r):
    """Directions with repeated jumps, zero, scaled and redundant ones."""
    gens = []
    for _ in range(rng.randint(0, 2 * r + 3)):
        jump = rng.randint(-3, 3)
        kind = rng.choice(["new", "new", "zero", "scaled", "sum", "unit"])
        if kind == "zero":
            d = (F.zero,) * r
        elif kind == "scaled" and gens:
            c = _scalar(F, rng)
            d = tuple(F.mul(c, a) for a in rng.choice(gens)[1])
        elif kind == "sum" and len(gens) > 1:
            (_, u), (_, v) = rng.sample(gens, 2)
            d = tuple(F.add(a, b) for a, b in zip(u, v))
        elif kind == "unit":
            k = rng.randrange(r)
            d = tuple(F.one if j == k else F.zero for j in range(r))
        else:
            d = tuple(_scalar(F, rng) for _ in range(r))
        gens.append((jump, d))
    return gens


@pytest.mark.parametrize("F,seed", [(QQ, 11), (GF(2), 12), (GF(3), 13)], ids=str)
def test_canonicalize_matches_per_jump_rref(F, seed):
    rng = random.Random(seed)
    full = 0
    for _ in range(400):
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        gens = _random_gens(F, rng, p + q) if p + q else []
        want = _outcome(oracle_canonical.canonicalize, F, gens, p, q)
        got = _outcome(canonicalize, F, gens, p, q)
        assert got == want, gens
        if isinstance(got, GradedLattice):
            _exact(F, got)
            full += 1
    assert 50 < full < 350  # both the full-rank and the failing branches ran


def _conjugated_gens(F, rng):
    """Generators of a sum of 1-6 rank-one and rank-two summands of lattice
    rank at most 5, conjugated by type-diagonal invertible matrices with
    entries in [-2, 2], in a shuffled order."""
    while True:
        parts = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.5:
                parts.append(rank_two(F, rng.randint(1, 3), rng.randint(-2, 2)))
            else:
                parts.append(rank_one(F, rng.randint(0, 1), rng.randint(-2, 2)))
        X = direct_sum_many(parts)[0]
        if X.rank <= 5:
            break
    u0 = random_invertible(F, rng, X.p) if X.p else ()
    u1 = random_invertible(F, rng, X.q) if X.q else ()
    gens = []
    for e, d in X.lattice.generators():
        top = linalg.mat_vec(F, u0, d[: X.p]) if X.p else ()
        bot = linalg.mat_vec(F, u1, d[X.p:]) if X.q else ()
        gens.append((e, tuple(top) + tuple(bot)))
    rng.shuffle(gens)
    return gens, X


@pytest.mark.parametrize("F,seed", [(QQ, 21), (GF(2), 22), (GF(3), 23)], ids=str)
def test_canonicalize_matches_per_jump_rref_on_conjugated_sums(F, seed):
    rng = random.Random(seed)
    for _ in range(60):
        gens, X = _conjugated_gens(F, rng)
        got = canonicalize(F, gens, X.p, X.q)
        assert _exact(F, got) == oracle_canonical.canonicalize(F, gens, X.p, X.q).steps
        assert got.jump_list == X.lattice.jump_list


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_canonicalize_raises_as_the_per_jump_loop(F):
    o, z = F.one, F.zero
    cases = [
        ([], 2, 0),  # no generators
        ([(0, (o, z)), (1, (z, z)), (2, (o, z))], 1, 1),  # rank one of two
        ([(0, (z, z))], 0, 2),  # only a zero direction
        ([(0, (o, z, z))], 1, 1),  # too long
        ([(0, (o, z)), (1, (o,))], 2, 0),  # one too short
        ([(3, ())], 0, 0),  # rank zero
        ([], 0, 0),
    ]
    for gens, p, q in cases:
        want = _outcome(oracle_canonical.canonicalize, F, gens, p, q)
        assert _outcome(canonicalize, F, gens, p, q) == want, gens
    assert _outcome(canonicalize, F, [], 2, 0) is NotFullRank
    assert _outcome(canonicalize, F, [(0, (o,))], 2, 0) is DimensionMismatch


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_canonicalize_adds_each_generator_once_and_runs_no_rref(F, monkeypatch):
    # a 40-jump lattice: unit vectors entering one per jump, each also
    # conjugated into the direction of its elder neighbour, plus a zero
    # direction and a redundant copy at every jump
    r = 40
    unit = linalg.identity(F, r)
    gens = []
    for j in range(r):
        v = unit[j] if j == 0 else linalg.vec_add(F, unit[j], unit[j - 1])
        gens += [(j, v), (j, (F.zero,) * r), (j, unit[0])]
    counts = Counter()
    real_rref = oracle_rref.rref

    def counted(F, rows):
        counts["oracle"] += 1
        return real_rref(F, rows)

    monkeypatch.setattr(oracle_rref, "rref", counted)
    want = oracle_canonical.canonicalize(F, gens, r // 2, r - r // 2)
    assert counts["oracle"] == r and len(want.steps) == r

    added = []
    real_add = linalg.Echelon.add

    def add(self, v):
        added.append(tuple(v))
        return real_add(self, v)

    def refuse(*args):
        raise AssertionError("canonicalize ran linalg.rref")

    monkeypatch.setattr(linalg.Echelon, "add", add)
    monkeypatch.setattr(linalg, "rref", refuse)
    got = canonicalize(F, gens, r // 2, r - r // 2)
    assert _exact(F, got) == want.steps
    assert Counter(added) == Counter(d for _, d in gens)
