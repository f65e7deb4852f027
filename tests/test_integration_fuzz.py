"""Seeded randomized cross-checks across the whole pipeline."""

import random

import pytest

from zdinfty.ar import class_of_sequence, extension_object, verify_exact
from zdinfty.decomp import decompose, label_to_object
from zdinfty.fields import GF, QQ
from zdinfty.homext import ext_space, hom_space, serre_check
from zdinfty.objects import direct_sum_many, rank_one, rank_two, torsion_cyclic

from oracle_decomp import factor_multiset
from oracle_trunc import hom_dim_trunc


def random_object(field, rng, max_parts=3, max_param=3):
    parts = []
    for _ in range(rng.randint(1, max_parts)):
        kind = rng.choice(["r1", "r2", "t"])
        a = rng.randint(-2, 2)
        if kind == "r1":
            parts.append(rank_one(field, rng.randint(0, 1), a))
        elif kind == "r2":
            parts.append(rank_two(field, rng.randint(1, max_param), a))
        else:
            parts.append(torsion_cyclic(field, rng.randint(1, max_param), a))
    return direct_sum_many(parts)[0]


@pytest.mark.parametrize("field,seed", [(QQ, 101), (GF(5), 202)])
def test_fuzz_duality_and_oracle(field, seed):
    rng = random.Random(seed)
    for _ in range(25):
        X = random_object(field, rng)
        Y = random_object(field, rng)
        assert serre_check(X, Y).dims_match
        if field is QQ:
            assert hom_space(X, Y).dim == hom_dim_trunc(X, Y, -7, 7)


@pytest.mark.parametrize("field,seed", [(QQ, 303), (GF(5), 404)])
def test_fuzz_random_extension_classes(field, seed):
    rng = random.Random(seed)
    built = 0
    for _ in range(70):
        X = random_object(field, rng, max_parts=2)
        Y = random_object(field, rng, max_parts=2)
        space = ext_space(X, Y)
        if space.dim == 0:
            continue
        # random combination of basis classes
        coeffs = [field.of_int(rng.randint(-2, 2)) for _ in space.basis]
        h01 = [[field.zero] * X.p for _ in range(Y.q)]
        h10 = [[field.zero] * X.q for _ in range(Y.p)]
        tor = [
            [field.zero] * len(space.basis[0].tor[i]) if space.basis else []
            for i in range(len(X.torsion.summands))
        ]
        for c, b in zip(coeffs, space.basis):
            for i in range(Y.q):
                for k in range(X.p):
                    h01[i][k] = field.add(h01[i][k], field.mul(c, b.h01[i][k]))
            for i in range(Y.p):
                for k in range(X.q):
                    h10[i][k] = field.add(h10[i][k], field.mul(c, b.h10[i][k]))
            for i in range(len(tor)):
                for k in range(len(tor[i])):
                    tor[i][k] = field.add(tor[i][k], field.mul(c, b.tor[i][k]))
        cls = space.reduce(
            tuple(map(tuple, h01)), tuple(map(tuple, h10)), tuple(map(tuple, tor))
        )
        seq = extension_object(cls)
        verify_exact(seq)
        assert class_of_sequence(seq.inject, seq.surject) == cls
        # middle invariants: rank and type additivity, euler additivity
        assert seq.middle.rank == X.rank + Y.rank
        assert (seq.middle.p, seq.middle.q) == (X.p + Y.p, X.q + Y.q)
        rng.randint(0, 10 ** 6)  # unused draw: keeps the sequence of classes stable
        dec = decompose(seq.middle)
        rebuilt = direct_sum_many(
            [label_to_object(field, l) for l in dec.factors]
        )[0]
        assert sorted(rebuilt.lattice.jump_list) == sorted(seq.middle.lattice.jump_list)
        assert rebuilt.torsion.summands == seq.middle.torsion.summands
        built += 1
    assert built >= 15


def test_fuzz_twist_functorial_on_mixed_objects():
    from zdinfty.homext import compose, serre_twist_morphism

    rng = random.Random(606)
    F = QQ
    done = 0
    for _ in range(60):
        A = random_object(F, rng, max_parts=2)
        B = random_object(F, rng, max_parts=2)
        C = random_object(F, rng, max_parts=2)
        fs = hom_space(A, B).basis
        gs = hom_space(B, C).basis
        if not fs or not gs:
            continue
        f = fs[rng.randrange(len(fs))]
        g = gs[rng.randrange(len(gs))]
        assert serre_twist_morphism(compose(g, f)) == compose(
            serre_twist_morphism(g), serre_twist_morphism(f)
        )
        done += 1
    assert done >= 10


def random_invertible(field, rng, n):
    from zdinfty import linalg

    while True:
        M = tuple(
            tuple(field.of_int(rng.randint(-2, 2)) for _ in range(n)) for _ in range(n)
        )
        if linalg.inverse(field, M) is not None:
            return M


@pytest.mark.parametrize(
    "field,seed", [(QQ, 707), (GF(5), 808), (GF(2), 909), (GF(3), 1010)]
)
def test_fuzz_decompose_conjugated_sums(field, seed):
    # an isomorphic, non-block embedding of a direct sum must decompose to
    # the same multiset: conjugate the lattice by a random type-diagonal map
    from zdinfty import linalg
    from zdinfty.decomp import is_isomorphism
    from zdinfty.lattice import canonicalize
    from zdinfty.objects import CObject, TorsionPart

    rng = random.Random(seed)
    for _ in range(20):
        X = random_object(field, rng, max_parts=4, max_param=3)
        if X.rank == 0:
            continue
        u0 = random_invertible(field, rng, X.p) if X.p else ()
        u1 = random_invertible(field, rng, X.q) if X.q else ()
        gens = []
        for e, dir in X.lattice.generators():
            top = linalg.mat_vec(field, u0, dir[: X.p]) if X.p else ()
            bot = linalg.mat_vec(field, u1, dir[X.p:]) if X.q else ()
            gens.append((e, tuple(top) + tuple(bot)))
        twisted = CObject(
            field, X.torsion, canonicalize(field, gens, X.p, X.q)
        )
        want = factor_multiset(decompose(X))
        rng.randint(0, 10 ** 6)  # unused draw: keeps the sequence of sums stable
        dec = decompose(twisted)
        assert factor_multiset(dec) == want
        assert is_isomorphism(dec.iso, twisted)


def test_restriction_dimension_identity_full_catalog():
    # dim Hom - dim Ext = dim restricted Hom - (p q' + q p') across the full
    # torsion-free catalog
    from zdinfty.homext import hom_kx_space

    objs = []
    for a in range(-3, 4):
        objs.append(rank_one(QQ, 0, a))
        objs.append(rank_one(QQ, 1, a))
        for m in range(1, 5):
            objs.append(rank_two(QQ, m, a))
    for X in objs:
        for Y in objs:
            lhs = hom_space(X, Y).dim - ext_space(X, Y).dim
            rhs = len(hom_kx_space(X, Y)) - (X.p * Y.q + X.q * Y.p)
            assert lhs == rhs


def test_unique_extension_against_twist_full_catalog():
    # every torsion-free catalog indecomposable has a one-dimensional
    # extension space against its twist, and the mesh middle is non-split
    from zdinfty.ar import almost_split
    from zdinfty.objects import serre_twist

    objs = [rank_one(QQ, i, a) for i in (0, 1) for a in range(-3, 4)]
    objs += [rank_two(QQ, m, a) for m in range(1, 5) for a in range(-3, 4)]
    for X in objs:
        assert ext_space(X, serre_twist(X)).dim == 1
        mesh = almost_split(X)
        assert not mesh.seq.is_split()


def test_euler_form_additive_over_sums():
    rng = random.Random(505)
    F = QQ
    for _ in range(10):
        A = random_object(F, rng, max_parts=2)
        B = random_object(F, rng, max_parts=2)
        C = random_object(F, rng, max_parts=2)
        AB = direct_sum_many([A, B])[0]

        def chi(U, V):
            return hom_space(U, V).dim - ext_space(U, V).dim

        assert chi(AB, C) == chi(A, C) + chi(B, C)
        assert chi(C, AB) == chi(C, A) + chi(C, B)
