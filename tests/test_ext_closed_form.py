"""``ext_space`` reads both reductions off stored data, with no solve.

The lattice image is spanned by the off-diagonal entries of s (x) g*_j, s an
echelon row of S_(e_j)(Y) and g*_j a row of the inverse generator matrix of
X; the torsion image is the unit slots of ``CObject.xpower_slots``.  Both are
compared with ``oracle_ext``, which solves for a basis of Hom_kx and row
reduces the x^n matrices, on the acceptance catalog and on seeded
lattice-heavy, torsion-heavy and mixed sums over Q, F_2 and F_3.
"""

import itertools
import random

import pytest

import oracle_ext
from zdinfty import homext, linalg
from zdinfty.fields import GF, QQ
from zdinfty.homext import ext_space
from zdinfty.objects import (
    direct_sum_many,
    rank_one,
    rank_two,
    serre_twist,
    torsion_cyclic,
)

from test_acceptance import catalog

FIELDS = [QQ, GF(2), GF(3)]


def _sums(F, seed=61, count=20):
    """``count`` sums of each kind: lattice-heavy (2-5 rank-two and rank-one
    summands), torsion-heavy (2-8 torsion summands, at most one lattice
    summand) and mixed (1-3 of each)."""
    rng = random.Random(seed)

    def lat():
        if rng.random() < 0.6:
            return rank_two(F, rng.randint(1, 3), rng.randint(-2, 2))
        return rank_one(F, rng.randint(0, 1), rng.randint(-2, 2))

    def tor():
        return torsion_cyclic(F, rng.randint(1, 4), rng.randint(-2, 2))

    kinds = (
        lambda: [lat() for _ in range(rng.randint(2, 5))],
        lambda: [tor() for _ in range(rng.randint(2, 8))] + [lat()] * rng.randint(0, 1),
        lambda: [lat() for _ in range(rng.randint(1, 3))] + [tor() for _ in range(rng.randint(1, 3))],
    )
    return [direct_sum_many(kind())[0] for kind in kinds for _ in range(count)]


def _assert_same(X, Y):
    got, want = ext_space(X, Y), oracle_ext.ext_space(X, Y)
    assert got.ff_reduction == want.ff_reduction, (X, Y)
    # the hit slots are the reference's pivots, and its rows are exactly
    # the unit rows at them
    assert got.tor_reduction == tuple(pivots for _, pivots in want.tor_reduction), (X, Y)
    for width, (rows, pivots) in zip(got.widths[1:], want.tor_reduction):
        assert rows == linalg.unit_matrix(X.field, len(pivots), width, enumerate(pivots)), (X, Y)
    assert got.basis == want.basis, (X, Y)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_ext_matches_hom_solve_on_catalog(F):
    objs = catalog(F)
    assert len(objs) ** 2 == 4900
    for X, Y in itertools.product(objs, repeat=2):
        _assert_same(X, Y)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_ext_matches_hom_solve_on_sums(F):
    sums = _sums(F)
    rng = random.Random(67)
    for X in sums:
        _assert_same(X, rng.choice(sums))
        _assert_same(X, serre_twist(X))
        _assert_same(serre_twist(X), X)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_generator_inverse_inverts_the_generator_matrix(F):
    for X in catalog(F) + _sums(F, count=5):
        L = X.lattice
        G, Ginv = L.generator_matrix(), L.generator_inverse
        eye = linalg.identity(F, L.rank)
        assert linalg.mm(F, Ginv, G, L.rank, L.rank) == eye, X
        assert linalg.mm(F, G, Ginv, L.rank, L.rank) == eye, X


def test_ext_space_solves_nothing(monkeypatch):
    # no kernel, no Hom_kx basis, and one elimination only for the lattice
    # image; ``rref`` would miss it, since the image is reduced on first read
    F = QQ
    torsion = direct_sum_many([torsion_cyclic(F, 2, 1), torsion_cyclic(F, 3, -1)])[0]
    mixed = direct_sum_many(
        [rank_two(F, 1, 0), rank_one(F, 1, 1), torsion_cyclic(F, 3, 0)]
    )[0]
    twisted = serre_twist(mixed)
    calls = {"nullspace": 0, "hom_kx_space": 0, "_echelon": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(linalg, "nullspace", counted("nullspace", linalg.nullspace))
    monkeypatch.setattr(linalg, "_echelon", counted("_echelon", linalg._echelon))
    monkeypatch.setattr(homext, "hom_kx_space", counted("hom_kx_space", homext.hom_kx_space))
    assert ext_space(torsion, mixed).dim == 3
    assert calls == {"nullspace": 0, "hom_kx_space": 0, "_echelon": 0}
    # the first call inverts the generator matrix once for the lattice
    ext_space(mixed, twisted)
    calls.update(nullspace=0, hom_kx_space=0, _echelon=0)
    ext_space(mixed, twisted)
    assert calls == {"nullspace": 0, "hom_kx_space": 0, "_echelon": 1}
