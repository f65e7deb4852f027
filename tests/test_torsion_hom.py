"""Closed-form torsion Hom against the dense solve in ``oracle_hom``."""

import random

import pytest

from zdinfty import ar, linalg
from zdinfty.errors import ShapeMismatch
from zdinfty.fields import GF, QQ
from zdinfty.homext import (
    Morphism,
    compose,
    hom_space,
    identity_morphism,
    module_xpower,
    morphism_degreewise,
    torsion_compatible,
    validate_morphism,
)
from zdinfty.objects import (
    direct_sum_many,
    rank_one,
    rank_two,
    torsion_cyclic,
)

from oracle_hom import shared_degrees, torsion_hom_basis
from oracle_slots import window_bounds

FIELDS = [QQ, GF(2), GF(3)]


def _torsion_sum(F, rng):
    """1-4 cyclic torsion summands T[n, a] with n <= 5 and |a| <= 3."""
    return [
        torsion_cyclic(F, rng.randint(1, 5), rng.randint(-3, 3))
        for _ in range(rng.randint(1, 4))
    ]


def _random_object(F, rng, mixed):
    parts = _torsion_sum(F, rng)
    if mixed:
        a = rng.randint(-3, 3)
        parts.append(
            rng.choice([rank_one(F, rng.randint(0, 1), a), rank_two(F, rng.randint(1, 2), a)])
        )
    return direct_sum_many(parts)[0]


def _pairs(F, seed, count=40):
    rng = random.Random(seed)
    return [
        (_random_object(F, rng, k % 2 == 1), _random_object(F, rng, k % 4 == 3))
        for k in range(count)
    ]


def _stacked(blocks, degrees):
    """One vector of the per-degree torsion blocks over the shared degrees."""
    out = []
    for d in degrees:
        for row in blocks(d):
            out.extend(row)
    return tuple(out)


def _window(*objs):
    bounds = [window_bounds(X) for X in objs]
    return min(lo for lo, _ in bounds), max(hi for _, hi in bounds)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_closed_form_matches_dense_solve(F):
    for X, Y in _pairs(F, 11):
        degrees = shared_degrees(X, Y)
        basis = hom_space(X, Y).basis
        tor = [m for m in basis if any(any(row) for row in m.tt)]
        ref = torsion_hom_basis(X, Y)
        assert len(tor) == len(ref), (X, Y)
        ours = [_stacked(m.tt_at, degrees) for m in tor]
        theirs = [_stacked(r.get, degrees) for r in ref]
        assert linalg.rank(F, ours) == len(tor)
        assert linalg.rref(F, ours)[0] == linalg.rref(F, theirs)[0]
        lo, hi = _window(X, Y)
        for m in basis:
            validate_morphism(m)
            for d in range(lo, hi):
                assert linalg.mm(
                    F, morphism_degreewise(m, d + 1), module_xpower(X, d, d + 1),
                    X.module_dim_at(d + 1), X.module_dim_at(d),
                ) == linalg.mm(
                    F, module_xpower(Y, d, d + 1), morphism_degreewise(m, d),
                    Y.module_dim_at(d), X.module_dim_at(d),
                )


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_compose_is_the_masked_product(F):
    rng = random.Random(23)
    for k in range(20):
        X, Y, Z = (_random_object(F, rng, k % 3 == j) for j in range(3))
        lo, hi = _window(X, Y, Z)
        for f in hom_space(X, Y).basis:
            for g in hom_space(Y, Z).basis:
                gf = compose(g, f)
                validate_morphism(gf)
                for d in range(lo, hi + 1):
                    nx, ny = X.torsion.dim_at(d), Y.torsion.dim_at(d)
                    assert gf.tt_at(d) == linalg.mm(F, g.tt_at(d), f.tt_at(d), ny, nx)


def test_torsion_hom_solves_nothing(monkeypatch):
    rng = random.Random(5)
    cases = []
    for F in FIELDS:
        for _ in range(20):
            X, Y = (direct_sum_many(_torsion_sum(F, rng))[0] for _ in range(2))
            cases.append((X, Y, len(torsion_hom_basis(X, Y))))
        T = direct_sum_many([torsion_cyclic(F, 3 + i % 5, i % 4) for i in range(20)])[0]
        cases.append((T, T, 180))

    def boom(*args, **kwargs):
        raise AssertionError("torsion Hom ran a nullspace")

    monkeypatch.setattr(linalg, "nullspace", boom)
    for X, Y, dim in cases:
        assert hom_space(X, Y).dim == dim


def _torsion_heavy(F, rng):
    """30-40 cyclic torsion summands and at most one lattice summand."""
    parts = [
        torsion_cyclic(F, rng.randint(1, 5), rng.randint(-3, 3))
        for _ in range(rng.randint(30, 40))
    ]
    if rng.random() < 0.5:
        parts.append(rank_two(F, rng.randint(1, 2), rng.randint(-2, 2)))
    return direct_sum_many(parts)[0]


def _per_pair_torsion_maps(X, Y):
    """One map per compatible pair, each block built on its own: the unit
    tt at (k, i) and zero a00, a11 and ft."""
    F = X.field
    S, T = X.torsion, Y.torsion

    def zero(m, n):
        return tuple(tuple(F.zero for _ in range(n)) for _ in range(m))

    ft = tuple(
        tuple(F.zero for _ in range(T.dim_at(jump))) for jump, _ in X.lattice.generators()
    )
    return [
        Morphism(
            X, Y, zero(Y.p, X.p), zero(Y.q, X.q),
            tuple(
                tuple(F.one if (r, c) == (k, i) else F.zero for c in range(len(S.summands)))
                for r in range(len(T.summands))
            ),
            ft,
        )
        for k in range(len(T.summands))
        for i in range(len(S.summands))
        if torsion_compatible(S, i, T, k)
    ]


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_shared_zero_blocks_match_per_pair_construction(F):
    # hom_space shares one zero row among the zero rows of every torsion
    # map, and one set of zero a00/a11/ft blocks among all of them
    rng = random.Random(29)
    sums = [_torsion_heavy(F, rng) for _ in range(20)]
    for X in sums:
        Y = rng.choice(sums)
        basis = hom_space(X, Y).basis
        lattice = sum(1 for m in basis if any(map(any, m.a00 + m.a11)))
        want = _per_pair_torsion_maps(X, Y)
        assert len(want) > 0
        assert list(basis[lattice:lattice + len(want)]) == want, (X, Y)
        for m in basis[lattice + len(want):]:
            assert not any(map(any, m.tt)) and sum(map(sum, m.ft)) == 1


def _psi(*blocks):
    """Degreewise matrices from degree 0 up."""
    return dict(enumerate(blocks))


def test_morphism_from_degreewise_rejects_what_tt_cannot_hold():
    F = QQ
    one, two = F.one, F.of_int(2)
    T2 = torsion_cyclic(F, 2, 0)
    m = ar.morphism_from_degreewise(T2, T2, _psi(((one,),), ((one,),), ()))
    assert m == identity_morphism(T2)
    # a later-degree block that differs from the birth-degree scalar
    with pytest.raises(ShapeMismatch):
        ar.morphism_from_degreewise(T2, T2, _psi(((one,),), ((two,),), ()))
    # T[1,0] -> T[2,0] is not a map: x kills the source but not the image
    T1 = torsion_cyclic(F, 1, 0)
    with pytest.raises(ShapeMismatch):
        ar.morphism_from_degreewise(T1, T2, _psi(((one,),), ((),), ()))
