"""Two-branch ring arithmetic and the module-index invariants."""

import itertools
import random

import pytest

from zdinfty.errors import NotLatticeMorphism, ZdinftyError
from zdinfty.fields import GF, QQ
from zdinfty.homext import hom_space, identity_morphism
from zdinfty.objects import direct_sum_many, rank_one, rank_two, torsion_cyclic
from zdinfty.singularity import singularity_index, y_linearity_bound

from oracle_ring import MixedIndex, Poly, RmElement, ring_u, ring_v

F = QQ


def test_generators_and_relations():
    for m in range(0, 6):
        u, v = ring_u(F, m), ring_v(F, m)
        uv = u * v
        assert uv.f == Poly.monomial(F, 1, m + 1) and uv.g.is_zero()
        assert (u ** 3).f == Poly.monomial(F, 1, 3) == (u ** 3).g
        # the defining relation of the two-branch ring
        assert v * v == (u ** m) * v


def test_congruence_enforced():
    with pytest.raises(ZdinftyError):
        RmElement(2, Poly.of(F, [1]), Poly.zero(F))
    # order-2 contact is fine at index 2
    RmElement(2, Poly.of(F, [0, 0, 1]), Poly.zero(F))
    with pytest.raises(MixedIndex):
        ring_u(F, 1) * ring_u(F, 2)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_homogeneous_closure_random(field):
    rng = random.Random(17)
    for _ in range(40):
        m = rng.randint(0, 4)
        d1, d2 = rng.randint(m, m + 3), rng.randint(m, m + 3)
        a = _random_homogeneous(field, rng, m, d1)
        b = _random_homogeneous(field, rng, m, d2)
        prod = a * b
        assert prod.is_homogeneous()
        s = a + a
        assert s.is_homogeneous()
        # congruence survives arithmetic by construction
        RmElement(m, prod.f, prod.g)


def _random_homogeneous(field, rng, m, d):
    # homogeneous degree-d elements: equal coefficients unless d >= m
    c = field.of_int(rng.randint(-3, 3))
    if d >= m:
        c2 = field.of_int(rng.randint(-3, 3))
    else:
        c2 = c
    return RmElement(m, Poly.monomial(field, c, d) if c else Poly.zero(field),
                     Poly.monomial(field, c2, d) if c2 else Poly.zero(field))


def test_singularity_index_catalog():
    for i in (0, 1):
        for a in (-2, 0, 1):
            assert singularity_index(rank_one(F, i, a)) == 0
    for m in (1, 2, 3, 4):
        for a in (-1, 0, 2):
            assert singularity_index(rank_two(F, m, a)) == m
    X = direct_sum_many([rank_two(F, 2, 0), rank_one(F, 0, 3)])[0]
    assert singularity_index(X) == 2
    with pytest.raises(NotLatticeMorphism):
        singularity_index(torsion_cyclic(F, 1, 0))


def _v_image(X, e, dir, n):
    """v_n . (x^e dir): the type-0 part of the generator, n degrees up."""
    from zdinfty.lattice import GradedVector
    from zdinfty.singularity import _v_image as v_zero

    return GradedVector(e + n, v_zero(X, dir))


def test_index_is_sharp():
    # v at one index below fails to stabilize the lattice
    from zdinfty.lattice import membership

    for m in (1, 2, 3):
        X = rank_two(F, m, 0)
        gens = X.lattice.generators()
        below = m - 1
        assert not all(
            membership(X.lattice, _v_image(X, e, dir, below))
            for e, dir in gens
        )


def test_y_linearity_bounds():
    for m in (1, 2, 3):
        assert y_linearity_bound(identity_morphism(rank_two(F, m, 0))) == m
    # same-type rank-one maps are linear at index zero
    for i in (0, 1):
        src, dst = rank_one(F, i, 0), rank_one(F, i, 2)
        for f in hom_space(src, dst).basis:
            assert y_linearity_bound(f) == 0
    # block-diagonal maps between small rank-two objects
    for f in hom_space(rank_two(F, 1, 0), rank_two(F, 1, 1)).basis:
        assert y_linearity_bound(f) <= 2


def test_linearity_monotone_in_index():
    # once linear at n, linear at every larger n (restriction compatibility)
    from zdinfty.lattice import membership

    X = rank_two(F, 3, 1)
    f = identity_morphism(X)
    n0 = y_linearity_bound(f)
    gens = X.lattice.generators()
    for n in range(n0, n0 + 4):
        assert all(
            membership(X.lattice, _v_image(X, e, dir, n)) for e, dir in gens
        )


def test_hom_basis_bounds_finite():
    objs = [rank_two(F, m, a) for m in (1, 2) for a in (-1, 0)]
    objs += [rank_one(F, i, a) for i in (0, 1) for a in (-1, 1)]
    top = max(singularity_index(o) for o in objs)
    spread = 4
    for X, Y in itertools.product(objs, repeat=2):
        for f in hom_space(X, Y).basis:
            assert y_linearity_bound(f) <= top + spread
