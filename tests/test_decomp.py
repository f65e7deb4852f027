"""End rings, Krull-Schmidt splitting, identification, filtrations."""

import itertools
import random

import pytest

from zdinfty import linalg
from zdinfty.decomp import (
    Decomposition,
    decompose,
    end_ring,
    filtration,
    identify,
    is_isomorphism,
    label_to_object,
    rank_one_label,
    rank_two_label,
    serre_twist_label,
    wing,
)
from zdinfty.errors import UnrecognizedShape
from zdinfty.fields import GF, QQ
from zdinfty.homext import hom_space, morphism_from_parts, torsion_compatible
from zdinfty.lattice import canonicalize
from zdinfty.objects import (
    CObject,
    TorsionPart,
    direct_sum_many,
    rank_one,
    rank_two,
    serre_twist,
    torsion_cyclic,
)

import oracle_decomp
from oracle_slots import max_degree, min_degree

F = QQ


def test_end_ring_dimensions():
    for m in (1, 2, 3):
        assert end_ring(rank_two(F, m, 0)).dim == 1
    X = direct_sum_many([rank_one(F, 0, 0), rank_one(F, 0, 1)])[0]
    assert end_ring(X).dim == 3
    for n in (1, 2, 4):
        assert end_ring(torsion_cyclic(F, n, -1)).dim == 1


def test_end_ring_table_has_identity():
    X = direct_sum_many([rank_one(F, 0, 0), rank_one(F, 0, 1)])[0]
    ring = end_ring(X)
    # associativity of the structure constants on a sample
    import zdinfty.homext as hx

    for i, j in itertools.product(range(ring.dim), repeat=2):
        prod = hx.compose(ring.basis[i], ring.basis[j])
        coords = ring.table[i][j]
        recon = [F.zero] * len(hx.morphism_vector(prod))
        for c, b in zip(coords, ring.basis):
            recon = [F.add(r, F.mul(c, v)) for r, v in zip(recon, hx.morphism_vector(b))]
        assert tuple(recon) == hx.morphism_vector(prod)


def test_identify_examples():
    lat = canonicalize(F, [(0, (F.one, F.one)), (2, (F.one, F.zero))], 1, 1)
    assert identify(CObject(F, TorsionPart(()), lat)) == rank_two_label(2, 0)
    lat1 = canonicalize(F, [(-3, (F.one,))], 0, 1)
    assert identify(CObject(F, TorsionPart(()), lat1)) == rank_one_label(1, 3)
    assert identify(torsion_cyclic(F, 4, -1)) == wing(4, -1)
    # a skew embedding is identified by its invariants, not its matrix
    skew = canonicalize(F, [(0, (F.one, F.of_int(3))), (2, (F.one, F.zero))], 1, 1)
    assert identify(CObject(F, TorsionPart(()), skew)) == rank_two_label(2, 0)
    with pytest.raises(UnrecognizedShape):
        identify(direct_sum_many([rank_one(F, 0, 0), torsion_cyclic(F, 1, 0)])[0])


def test_decompose_zero_object():
    from zdinfty.homext import identity_morphism
    from zdinfty.objects import zero_object

    for field in (QQ, GF(2), GF(3)):
        Z = zero_object(field)
        dec = decompose(Z)
        assert dec == Decomposition(Z, ()) and dec.factors == ()
        assert dec.iso == identity_morphism(Z)


def test_decompose_indecomposables():
    for X, lbl in [
        (rank_two(F, 3, 1), rank_two_label(3, 1)),
        (rank_one(F, 1, -2), rank_one_label(1, -2)),
        (torsion_cyclic(F, 2, 0), wing(2, 0)),
    ]:
        dec = decompose(X)
        assert dec.factors == (lbl,)
        assert is_isomorphism(dec.iso, X)


def test_decompose_already_split():
    parts = [rank_one(F, 0, 0), rank_one(F, 1, 2), torsion_cyclic(F, 2, 1)]
    X = direct_sum_many(parts)[0]
    dec = decompose(X)
    assert sorted(str(f) for f in dec.factors) == ["F0[0]", "F1[2]", "T[2,1]"]
    assert is_isomorphism(dec.iso, X)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_is_isomorphism_one_torsion_inverse(field):
    # one inverse of the whole torsion matrix decides what one inverse per
    # degree decided; repeated summands give the diagonal blocks some width
    rng = random.Random(29)
    verdicts = []
    for _ in range(80):
        parts = [
            torsion_cyclic(field, rng.randint(1, 3), rng.randint(-1, 1))
            for _ in range(rng.randint(1, 5))
        ]
        if rng.random() < 0.3:
            parts.append(rank_two(field, 2, 0))
        X = direct_sum_many(parts)[0]
        S, n = X.torsion, len(X.torsion.summands)
        tt = [
            [
                field.of_int(rng.randint(-1, 1)) if torsion_compatible(S, i, S, k) else field.zero
                for i in range(n)
            ]
            for k in range(n)
        ]
        m = morphism_from_parts(
            X, X, linalg.identity(field, X.p), linalg.identity(field, X.q), tt
        )
        per_degree = all(
            linalg.inverse(field, m.tt_at(d)) is not None
            for d in range(min_degree(S), max_degree(S) + 1)
        )
        assert is_isomorphism(m, X) == per_degree, (X, tt)
        verdicts.append(per_degree)
    assert 10 <= sum(verdicts) <= 70


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_is_isomorphism_checks_each_lattice_block(field):
    one, zero = field.one, field.zero
    X = direct_sum_many(
        [rank_one(field, 0, 0), rank_one(field, 0, 0), rank_one(field, 1, 0),
         torsion_cyclic(field, 2, 0)]
    )[0]
    eye2, singular = ((one, zero), (zero, one)), ((one, one), (one, one))
    assert is_isomorphism(morphism_from_parts(X, X, eye2, ((one,),), ((one,),)), X)
    # the full matrix is singular through a00 alone
    assert not is_isomorphism(morphism_from_parts(X, X, singular, ((one,),), ((one,),)), X)
    # equal rank and jumps but (p, q) = (2, 0) against (1, 1): a00 and a11
    # are not square, although a00 has full row rank
    two_f0 = direct_sum_many([rank_one(field, 0, 0), rank_one(field, 0, 0)])[0]
    f0_f1 = direct_sum_many([rank_one(field, 0, 0), rank_one(field, 1, 0)])[0]
    assert not is_isomorphism(morphism_from_parts(two_f0, f0_f1, ((one, zero),), ((),)), f0_f1)
    assert not is_isomorphism(morphism_from_parts(f0_f1, two_f0, ((one,), (zero,)), ()), two_f0)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=str)
def test_decompose_matches_fraction_reference(field):
    # the integer sweep, the closed-form sum and the blockwise certificate
    # give the factors and isomorphism of the Fraction reference exactly
    rng = random.Random(83)
    shapes = [
        (r2, t, k - r2 - t)
        for k in range(1, 7)
        for r2 in range(k + 1)
        for t in range(k - r2 + 1)
        if 2 * r2 + (k - r2 - t) <= 5
    ]
    inputs = [oracle_decomp.conjugated_sum(field, rng, rng.choice(shapes))[0] for _ in range(30)]
    inputs += [direct_sum_many([rank_two(field, 2, 0)] * k)[0] for k in range(1, 9)]
    for X in inputs:
        dec = decompose(X)
        factors, iso = oracle_decomp.decompose(X)
        assert dec.factors == factors
        got, want = dec.iso, iso
        assert (got.a00, got.a11, got.tt, got.ft) == (want.a00, want.a11, want.tt, want.ft)
        assert got.src.lattice.steps == want.src.lattice.steps
        assert got.src == want.src


def test_decompose_skewed_sum():
    # glue two rank-one objects through an invertible change of basis
    one = F.one
    lat = canonicalize(
        F, [(0, (one, one)), (-2, (one, F.of_int(2)))], 2, 0
    )
    X = CObject(F, TorsionPart(()), lat)
    dec = decompose(X)
    assert dec.factors == (rank_one_label(0, 0), rank_one_label(0, 2))
    assert is_isomorphism(dec.iso, X)


def test_decompose_isotypic_power():
    # two isomorphic rank-two summands in skew position exercise the
    # elder-rule sweep on a skew isotypic sum
    one, zero = F.one, F.zero
    gens = [
        (0, (one, one, one, one)),
        (0, (one, F.of_int(2), one, F.of_int(3))),
        (2, (one, zero, one, zero)),
        (2, (zero, one, one, zero)),
    ]
    lat = canonicalize(F, gens, 2, 2)
    X = CObject(F, TorsionPart(()), lat)
    dec = decompose(X)
    assert dec.factors == (rank_two_label(2, 0), rank_two_label(2, 0))
    assert is_isomorphism(dec.iso, X)


def random_catalog_sum(field, rng, max_factors=4, max_param=3):
    labels = []
    for _ in range(rng.randint(1, max_factors)):
        kind = rng.choice(["r1", "r2", "t"])
        a = rng.randint(-max_param, max_param)
        if kind == "r1":
            labels.append(rank_one_label(rng.randint(0, 1), a))
        elif kind == "r2":
            labels.append(rank_two_label(rng.randint(1, max_param), a))
        else:
            labels.append(wing(rng.randint(1, max_param), a))
    objs = [label_to_object(field, l) for l in labels]
    big, embeds = direct_sum_many(objs)
    return big, tuple(sorted(l.sort_key() for l in labels))


@pytest.mark.parametrize("field", [QQ, GF(5), GF(2), GF(3)])
def test_krull_schmidt_random_sums(field):
    rng = random.Random(99)
    for _ in range(25):
        X, expected = random_catalog_sum(field, rng)
        rng.randint(0, 10**6)  # unused draw: keeps the sequence of sums stable
        dec = decompose(X)
        assert oracle_decomp.factor_multiset(dec) == expected
        assert is_isomorphism(dec.iso, X)


def test_decompose_twisted_embedding():
    # an isomorphic but non-canonical embedding of a direct sum
    one, zero = F.one, F.zero
    # rank_two(1,0) + rank_one(0,1), mixed by a unipotent ambient map
    gens = [
        (0, (one, one, one)),
        (1, (one, zero, zero)),
        (-1, (zero, one, zero)),
    ]
    lat = canonicalize(F, gens, 2, 1)
    X = CObject(F, TorsionPart(()), lat)
    dec = decompose(X)
    assert oracle_decomp.factor_multiset(dec) == tuple(
        sorted([rank_two_label(1, 0).sort_key(), rank_one_label(0, 1).sort_key()])
    )


def test_decompose_identify_resynthesis():
    # identify(factor) rebuilds each factor's canonical form
    rng = random.Random(77)
    for _ in range(10):
        X, _ = random_catalog_sum(F, rng, max_factors=3)
        dec = decompose(X)
        for lbl in dec.factors:
            Y = label_to_object(F, lbl)
            assert identify(Y) == lbl
            assert decompose(Y).factors == (lbl,)


def test_serre_twist_label_matches_objects():
    for lbl in [rank_one_label(0, 0), rank_one_label(1, -1), rank_two_label(3, 2), wing(2, 0)]:
        X = label_to_object(F, lbl)
        assert identify_or_none(serre_twist(X)) == serre_twist_label(lbl)


def identify_or_none(X):
    try:
        return identify(X)
    except UnrecognizedShape:
        return None


def test_end_dim_additivity():
    # dim End(sum X_i) = sum of dim Hom(X_i, X_j) over ordered pairs
    rng = random.Random(5)
    for _ in range(8):
        X, _ = random_catalog_sum(F, rng, max_factors=3)
        dec = decompose(X)
        total = 0
        objs = [label_to_object(F, l) for l in dec.factors]
        for A in objs:
            for B in objs:
                total += hom_space(A, B).dim
        assert end_ring(X).dim == total


def test_filtration_rank_two():
    for m in (1, 2, 3):
        X = rank_two(F, m, 0)
        filt = filtration(X)
        assert len(filt.labels) == 2
        # peeling the type-1 coordinate first: top quotient F1[0], kernel F0[-m]
        assert filt.labels[-1] == rank_one_label(1, 0)
        assert filt.labels[0] == rank_one_label(0, -m)
        assert filt.chain[0] == ()
        assert len(filt.chain) == 3


def test_filtration_rank_one_and_sum():
    X = rank_one(F, 0, 2)
    filt = filtration(X)
    assert filt.labels == (rank_one_label(0, 2),)
    Y = direct_sum_many([rank_one(F, 0, 0), rank_one(F, 1, 1)])[0]
    filt = filtration(Y)
    assert sorted(str(l) for l in filt.labels) == ["F0[0]", "F1[1]"]


def test_filtration_type_multiset_invariant():
    rng = random.Random(12)
    for _ in range(10):
        X, _ = random_catalog_sum(F, rng, max_factors=3)
        X = CObject(F, TorsionPart(()), X.lattice)  # torsion-free part
        if X.rank == 0:
            continue
        filt = filtration(X)
        assert len(filt.labels) == X.rank
        types = sorted(l.params[0] for l in filt.labels)
        assert types == sorted([0] * X.p + [1] * X.q)
