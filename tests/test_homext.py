"""Hom/Ext dimensions, trace-map laws, Serre pairing, Yoneda algebra."""

import itertools
import random

import pytest

from zdinfty import linalg
from zdinfty.errors import ShapeMismatch
from zdinfty.fields import GF, QQ
from zdinfty.homext import (
    DegreeTwoWitness,
    compose,
    eta,
    euler_form,
    ext_space,
    hom_kx_space,
    hom_space,
    identity_morphism,
    morphism_degreewise,
    morphism_from_parts,
    serre_check,
    serre_gram,
    serre_twist_morphism,
    validate_morphism,
    yoneda_compose,
)
from zdinfty.objects import (
    direct_sum_many,
    rank_one,
    rank_two,
    serre_twist,
    torsion_cyclic,
    zero_object,
)

from oracle_ses import zero_class
from oracle_trunc import hom_dim_trunc

F = QQ


def small_catalog(field=F, ms=(1, 2), ns=(1, 2), shifts=(-1, 0, 1)):
    objs = []
    for a in shifts:
        objs.append(rank_one(field, 0, a))
        objs.append(rank_one(field, 1, a))
        for m in ms:
            objs.append(rank_two(field, m, a))
        for n in ns:
            objs.append(torsion_cyclic(field, n, a))
    return objs


def test_rank_one_hom_table():
    for i, j in itertools.product((0, 1), repeat=2):
        for a, b in itertools.product(range(-3, 4), repeat=2):
            d = hom_space(rank_one(F, i, a), rank_one(F, j, b)).dim
            assert d == (1 if i == j and a <= b else 0)


def test_rank_one_ext_table():
    for i, j in itertools.product((0, 1), repeat=2):
        for a, b in itertools.product(range(-3, 4), repeat=2):
            d = ext_space(rank_one(F, i, a), rank_one(F, j, b)).dim
            assert d == (1 if i == 1 - j and a > b else 0)


def test_hom_examples():
    assert hom_space(rank_one(F, 0, 1), rank_one(F, 0, 2)).dim == 1
    assert hom_space(rank_one(F, 0, 1), rank_one(F, 1, 2)).dim == 0
    for m in (1, 2, 3, 4):
        assert hom_space(rank_two(F, m, 0), rank_two(F, m, 0)).dim == 1
    assert hom_space(rank_two(F, 1, 0), rank_two(F, 1, 1)).dim == 2


def test_hom_kx_examples():
    f10 = rank_two(F, 1, 0)
    assert len(hom_kx_space(f10, f10)) == 3
    for a, b in itertools.product(range(-2, 3), repeat=2):
        d = len(hom_kx_space(rank_one(F, 0, a), rank_one(F, 0, b)))
        assert d == (1 if a <= b else 0)
    # identity is always there
    for X in (f10, rank_two(F, 3, -1), rank_one(F, 1, 2)):
        assert hom_space(X, X).dim >= 1
        assert any(
            m.full_matrix() == linalg.identity(F, X.rank)
            for m in hom_space(X, X).basis
        )


def test_ext_examples():
    assert ext_space(rank_one(F, 0, 2), rank_one(F, 1, 1)).dim == 1
    assert ext_space(rank_one(F, 0, 1), rank_one(F, 0, 2)).dim == 0
    for m in (1, 2, 3):
        for a in (-1, 0, 2):
            X = rank_two(F, m, a)
            assert ext_space(X, serre_twist(X)).dim == 1
    assert ext_space(torsion_cyclic(F, 1, 0), rank_two(F, 1, -1)).dim == 1
    # extensions of a lattice by torsion vanish
    assert ext_space(rank_two(F, 2, 0), torsion_cyclic(F, 3, 1)).dim == 0
    assert ext_space(rank_one(F, 0, 0), torsion_cyclic(F, 1, 0)).dim == 0


def test_hom_into_torsion_dimension():
    # dim Hom(F, T) is the total torsion dimension over the jump degrees
    X = rank_two(F, 2, 0)  # jumps 0, 2
    T = torsion_cyclic(F, 3, 1)  # alive at -1, 0, 1
    assert hom_space(X, T).dim == 1  # only jump 0 hits the window
    T2 = torsion_cyclic(F, 4, 0)  # alive 0..3
    assert hom_space(X, T2).dim == 2
    assert hom_space(T, X).dim == 0  # torsion to lattice vanishes


def test_exact_sequence_dimension_identity():
    # dim Hom_C - dim Ext = dim Hom_kx - (p q' + q p') for lattice pairs
    rng = random.Random(1)
    objs = [o for o in small_catalog(ms=(1, 2, 3)) if o.is_torsion_free()]
    for X, Y in itertools.product(objs, repeat=2):
        lhs = hom_space(X, Y).dim - ext_space(X, Y).dim
        rhs = len(hom_kx_space(X, Y)) - (X.p * Y.q + X.q * Y.p)
        assert lhs == rhs


def test_hom_dims_against_truncated_oracle_sample():
    objs = small_catalog()
    rng = random.Random(2)
    pairs = [(rng.choice(objs), rng.choice(objs)) for _ in range(30)]
    pairs += [
        (direct_sum_many([rank_two(F, 2, 0), torsion_cyclic(F, 2, 1)])[0],
         direct_sum_many([rank_one(F, 0, 1), torsion_cyclic(F, 3, 0)])[0]),
    ]
    for X, Y in pairs:
        assert hom_space(X, Y).dim == hom_dim_trunc(X, Y, -6, 6)


def test_morphism_validation_and_composition():
    X = rank_two(F, 2, 1)
    Y = direct_sum_many([rank_two(F, 1, 0), torsion_cyclic(F, 2, 1)])[0]
    hs = hom_space(X, Y)
    for m in hs.basis:
        validate_morphism(m)
    idX = identity_morphism(X)
    for m in hs.basis:
        assert compose(m, idX) == m
        assert compose(identity_morphism(Y), m) == m
    # degreewise matrices commute with x (checked via the model)
    for m in hs.basis:
        for d in range(-3, 4):
            lhs = linalg.mm(
                F, morphism_degreewise(m, d + 1),
                _module_xmat(X, d), X.module_dim_at(d + 1), X.module_dim_at(d),
            )
            rhs = linalg.mm(
                F, _module_xmat(Y, d),
                morphism_degreewise(m, d), Y.module_dim_at(d), X.module_dim_at(d),
            )
            assert lhs == rhs


def test_validate_morphism_checks_lattice_to_torsion_shape():
    # F0[0] -> F0[0] + T[3,0]: the generator's jump 0 meets one torsion slot
    X = rank_one(F, 0, 0)
    Y = direct_sum_many([X, torsion_cyclic(F, 3, 0)])[0]
    one = ((F.one,),)
    validate_morphism(morphism_from_parts(X, Y, one, (), None, one))
    for ft in (((F.one, F.zero, F.zero),), ((),), (), ((F.one,), (F.one,))):
        with pytest.raises(ShapeMismatch):
            validate_morphism(morphism_from_parts(X, Y, one, (), None, ft))


def _module_xmat(X, d):
    from zdinfty.homext import module_xpower

    return module_xpower(X, d, d + 1)


def test_eta_values():
    for Fobj in (rank_two(F, 2, 0), rank_one(F, 0, 1), rank_two(F, 1, -1)):
        VF = serre_twist(Fobj)
        space = ext_space(Fobj, VF)
        # the identity-block representative evaluates to dim V0
        h01 = linalg.identity(F, Fobj.p)
        h10 = linalg.zeros(F, Fobj.q, Fobj.q)
        cls = space.reduce(h01, h10, ())
        assert eta(Fobj, cls) == F.of_int(Fobj.p)
        assert eta(Fobj, zero_class(Fobj, VF)) == F.zero
    # maps (degree zero) and degree-two products are sent to zero by convention;
    # dim Hom(X, VX) = 1 for X = F[1,0] + F[1,1], so a map is tested
    X = direct_sum_many([rank_two(F, 1, 0), rank_two(F, 1, 1)])[0]
    VX = serre_twist(X)
    basis = hom_space(X, VX).basis
    assert len(basis) == 1 and not basis[0].is_zero()
    assert eta(X, basis[0]) == F.zero
    assert morphism_from_parts(X, VX, linalg.zeros(F, 2, 2), linalg.zeros(F, 2, 2)).is_zero()
    assert eta(X, DegreeTwoWitness(X, VX)) == F.zero


def test_eta_well_defined_on_cosets():
    # perturbing a representative by the off-diagonal image changes nothing
    rng = random.Random(3)
    for Fobj in (rank_two(F, 2, 0), rank_two(F, 1, 1), rank_one(F, 0, 0)):
        VF = serre_twist(Fobj)
        space = ext_space(Fobj, VF)
        p, q = Fobj.p, Fobj.q
        for A in hom_kx_space(Fobj, VF):
            h01 = tuple(tuple(A[VF.p + i][k] for k in range(p)) for i in range(VF.q))
            h10 = tuple(tuple(A[i][p + k] for k in range(q)) for i in range(VF.p))
            # image representatives have zero trace sum and zero class
            tr = F.add(linalg.trace(F, h01), linalg.trace(F, h10))
            assert tr == F.zero
            assert space.reduce(h01, h10, ()).is_zero()


def test_yoneda_class_precomposition_and_degree_two():
    Fa, G = rank_one(F, 0, 2), rank_one(F, 1, 1)
    cls = ext_space(Fa, G).basis[0]
    idm = identity_morphism(Fa)
    assert yoneda_compose(cls, idm) == cls
    # degree-2 products collapse to the zero witness
    below = ext_space(G, rank_one(F, 0, 0)).basis[0]
    two = yoneda_compose(below, cls)
    assert isinstance(two, DegreeTwoWitness) and two.is_zero()


def test_yoneda_representative_is_matrix_product():
    # class composed with a map has representative C.A, independent of the
    # chosen coset representative
    Fo, G = rank_two(F, 1, 0), rank_two(F, 1, 1)
    VF = serre_twist(Fo)
    homs = hom_space(Fo, G).basis
    exts = ext_space(G, VF)
    for f in homs:
        for g in exts.basis:
            prod = yoneda_compose(g, f)
            raw01 = linalg.mm(F, g.h01, f.a00, G.p, Fo.p)
            raw10 = linalg.mm(F, g.h10, f.a11, G.q, Fo.q)
            expect = ext_space(Fo, VF).reduce(raw01, raw10, ())
            assert prod == expect
            # perturb g by an off-diagonal image element: same product class
            for A in hom_kx_space(G, VF):
                p01 = tuple(
                    tuple(F.add(g.h01[i][k], A[VF.p + i][k]) for k in range(G.p))
                    for i in range(VF.q)
                )
                p10 = tuple(
                    tuple(F.add(g.h10[i][k], A[i][G.p + k]) for k in range(G.q))
                    for i in range(VF.p)
                )
                g2 = exts.reduce(p01, p10, ())
                assert g2 == g
                assert yoneda_compose(g2, f) == prod


def test_yoneda_associativity_mixed_degrees():
    # (h . g) . f == h . (g . f) with one degree-one factor in each slot
    rng = random.Random(6)
    objs = small_catalog(ms=(1, 2), shifts=(-1, 0, 1))
    tried = 0
    for _ in range(200):
        A, B, C, D = (rng.choice(objs) for _ in range(4))
        homs_ab = hom_space(A, B).basis
        homs_cd = hom_space(C, D).basis
        exts_bc = ext_space(B, C).basis
        if not (homs_ab and homs_cd and exts_bc):
            continue
        f = rng.choice(homs_ab)
        g = rng.choice(exts_bc)
        h = rng.choice(homs_cd)
        left = yoneda_compose(yoneda_compose(h, g), f)
        right = yoneda_compose(h, yoneda_compose(g, f))
        assert left == right
        tried += 1
        if tried >= 25:
            break
    assert tried >= 10


def test_twist_is_functorial_on_morphisms():
    objs = small_catalog(ms=(1, 2), shifts=(0, 1))
    rng = random.Random(9)
    for _ in range(20):
        A, B, C = (rng.choice(objs) for _ in range(3))
        fs = hom_space(A, B).basis
        gs = hom_space(B, C).basis
        if not fs or not gs:
            continue
        f, g = rng.choice(fs), rng.choice(gs)
        lhs = serre_twist_morphism(compose(g, f))
        rhs = compose(serre_twist_morphism(g), serre_twist_morphism(f))
        assert lhs == rhs
    # identity goes to identity
    X = small_catalog()[0]
    from zdinfty.objects import serre_twist as V

    assert serre_twist_morphism(identity_morphism(X)) == identity_morphism(V(X))


def test_adjointness_of_trace():
    # eta_F(g . f) = eta_G(V(f) . g) over catalog basis pairs
    objs = [o for o in small_catalog(ms=(1, 2), shifts=(-1, 0, 1)) if o.is_torsion_free()]
    rng = random.Random(4)
    checked = 0
    for Fobj, G in itertools.product(objs, repeat=2):
        homs = hom_space(Fobj, G).basis
        exts = ext_space(G, serre_twist(Fobj)).basis
        for f in homs:
            for g in exts:
                lhs = eta(Fobj, yoneda_compose(g, f))
                rhs = eta(G, yoneda_compose(serre_twist_morphism(f), g))
                assert lhs == rhs
                checked += 1
    assert checked > 50


def test_eta_twist_compatibility():
    # eta_{VX} of the twisted class equals eta_X of the class
    from zdinfty.homext import serre_twist_class

    for X in (rank_two(F, 2, 0), rank_one(F, 0, 1), rank_two(F, 3, -1)):
        VX = serre_twist(X)
        for c in ext_space(X, VX).basis:
            twisted = serre_twist_class(c)
            assert eta(VX, twisted) == eta(X, c)


def test_twist_is_an_autoequivalence_on_dimensions():
    objs = small_catalog(shifts=(-1, 0, 1))
    for X, Y in itertools.product(objs, repeat=2):
        VX, VY = serre_twist(X), serre_twist(Y)
        assert hom_space(X, Y).dim == hom_space(VX, VY).dim
        assert ext_space(X, Y).dim == ext_space(VX, VY).dim
    # inverse on canonical forms
    from zdinfty.objects import serre_untwist

    for X in objs:
        assert serre_untwist(serre_twist(X)) == X


def test_torsion_to_lattice_vanishes_catalog():
    torsion = [torsion_cyclic(F, n, a) for n in (1, 2, 3) for a in (-2, 0, 2)]
    lattices = [rank_two(F, m, a) for m in (1, 3) for a in (-1, 1)]
    lattices += [rank_one(F, i, a) for i in (0, 1) for a in (-2, 2)]
    for T, L in itertools.product(torsion, lattices):
        assert hom_space(T, L).dim == 0
        assert ext_space(L, T).dim == 0


def test_serre_gram_examples():
    g = serre_gram(rank_one(F, 0, 2), rank_one(F, 0, 2))
    assert len(g) == 1 and len(g[0]) == 1 and g[0][0] != F.zero
    g = serre_gram(rank_one(F, 0, 0), rank_one(F, 1, 0))
    assert g == ()
    g = serre_gram(rank_two(F, 1, 0), rank_two(F, 1, 1))
    assert len(g) == 2 and linalg.rank(F, g) == 2


def test_serre_gram_flipped():
    Fobj, G = rank_two(F, 1, 0), rank_two(F, 1, 1)
    g = serre_gram(Fobj, G, flipped=True)
    d = ext_space(Fobj, G).dim
    assert len(g) == d and linalg.rank(F, g) == d


def test_serre_check_pairs():
    r = serre_check(rank_one(F, 0, 1), rank_one(F, 0, 2))
    assert r.dim_hom == 1 and r.dim_ext_twisted == 1 and r.passed
    # torsion against lattice, both orientations
    r = serre_check(torsion_cyclic(F, 1, 0), rank_two(F, 1, 0))
    assert (r.dim_hom, r.dim_ext_twisted) == (0, 0) and r.passed
    r = serre_check(rank_two(F, 1, 0), torsion_cyclic(F, 1, 0))
    assert (r.dim_hom, r.dim_ext_twisted) == (1, 1) and r.passed
    r = serre_check(zero_object(F), rank_two(F, 2, 0))
    assert (r.dim_hom, r.dim_ext_twisted) == (0, 0) and r.passed


def test_serre_duality_dims_small_sweep():
    objs = small_catalog(shifts=(-1, 0, 1))
    for X, Y in itertools.product(objs, repeat=2):
        assert serre_check(X, Y).passed, (X, Y)


def test_euler_form_values():
    assert euler_form(rank_one(F, 0, 0), rank_one(F, 0, 0)) == 1
    assert euler_form(rank_one(F, 0, 1), rank_one(F, 1, 0)) == -1
    X, Y = rank_two(F, 2, 0), rank_two(F, 3, 1)
    assert euler_form(X, Y) == hom_space(X, Y).dim - ext_space(X, Y).dim


@pytest.mark.parametrize("field", [GF(5)])
def test_prime_field_agrees_on_dimensions(field):
    objs = small_catalog(field=field, shifts=(0, 1))
    objs_q = small_catalog(field=QQ, shifts=(0, 1))
    for (X5, XQ), (Y5, YQ) in itertools.product(zip(objs, objs_q), repeat=2):
        assert hom_space(X5, Y5).dim == hom_space(XQ, YQ).dim
        assert ext_space(X5, Y5).dim == ext_space(XQ, YQ).dim
