"""Canonical forms, membership, sum and intersection of graded lattices."""

import random

import pytest
from hypothesis import given, strategies as st

from zdinfty import linalg
from zdinfty.errors import DimensionMismatch, NotFullRank
from zdinfty.fields import GF, QQ
from zdinfty.lattice import (
    GradedVector,
    adapted_coords,
    canonicalize,
    lattice_intersect,
    lattice_sum,
    membership,
    shift_lattice,
    sigma_lattice,
)
from zdinfty.objects import direct_sum_many, rank_one, rank_two

from oracle_decomp import _embedding, lattice_direct_sum
from oracle_membership import contains, kx_membership


def F20():
    return rank_two(QQ, 2, 0).lattice


def test_canonicalize_rank_two_embedding():
    F = QQ
    one, zero = F.one, F.zero
    for m in (1, 2, 3):
        lat = canonicalize(F, [(0, (one, one)), (m, (one, zero))], 1, 1)
        assert lat == rank_two(F, m, 0).lattice
        assert lat.jump_list == (0, m)


def test_canonicalize_single_generator():
    lat = canonicalize(QQ, [(0, (QQ.one,))], 1, 0)
    assert lat == rank_one(QQ, 0, 0).lattice
    assert lat.jump_list == (0,)


def test_canonicalize_redundant_and_not_full_rank():
    F = QQ
    one, zero = F.one, F.zero
    lat = canonicalize(F, [(-1, (one, one)), (1, (zero, one)), (0, (one, zero))], 1, 1)
    assert len(lat.generators()) == 2
    assert lat.jump_list == (-1, 0)
    with pytest.raises(NotFullRank):
        canonicalize(F, [(0, (one, zero, zero)), (1, (zero, one, zero))], 2, 1)
    with pytest.raises(NotFullRank):
        canonicalize(F, [], 1, 0)
    with pytest.raises(DimensionMismatch):
        canonicalize(F, [(0, (one,))], 1, 1)


def test_canonicalize_idempotent():
    F = QQ
    rng = random.Random(7)
    for _ in range(25):
        lat = random_lattice(F, rng)
        again = canonicalize(F, lat.generators(), lat.p, lat.q)
        assert again == lat


def test_membership_examples():
    F = QQ
    one, zero = F.one, F.zero
    L = F20()
    assert not membership(L, GradedVector(1, (one, zero)))
    assert membership(L, GradedVector(1, (zero, zero)))
    assert membership(L, GradedVector(2, (one, zero)))
    assert membership(L, GradedVector(0, (one, one)))
    with pytest.raises(DimensionMismatch):
        membership(L, GradedVector(0, (one,)))


def random_lattice(F, rng, max_rank=3):
    p = rng.randint(0, max_rank - 1)
    q = rng.randint(0 if p else 1, max_rank - p)
    r = p + q
    while True:
        gens = []
        for _ in range(r + rng.randint(0, 2)):
            gens.append(
                (
                    rng.randint(-3, 3),
                    tuple(F.of_int(rng.randint(-2, 2)) for _ in range(r)),
                )
            )
        try:
            return canonicalize(F, gens, p, q)
        except NotFullRank:
            continue


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_membership_matches_kx_solver_oracle(field):
    rng = random.Random(11)
    for _ in range(40):
        lat = random_lattice(field, rng)
        gens = lat.generators()
        d = rng.randint(-4, 5)
        v = tuple(field.of_int(rng.randint(-2, 2)) for _ in range(lat.rank))
        got = membership(lat, GradedVector(d, v))
        want = kx_membership(field, gens, d, v)
        assert got == want


def test_sum_and_intersection_inside_rank_two():
    # the two natural rank-two sublattices with adjacent conductors
    F = QQ
    one, zero = F.one, F.zero
    outer = F20()
    sub_small = canonicalize(F, [(1, (one, one)), (2, (one, zero))], 1, 1)  # conductor 1, shift -1
    sub_large = canonicalize(F, [(0, (one, one)), (3, (one, zero))], 1, 1)  # conductor 3, shift 0
    assert contains(outer, sub_small) and contains(outer, sub_large)
    assert lattice_sum(sub_small, sub_large) == outer
    expected_meet = canonicalize(F, [(1, (one, one)), (3, (one, zero))], 1, 1)
    assert lattice_intersect(sub_small, sub_large) == expected_meet
    assert expected_meet == shift_lattice(rank_two(F, 2, 0).lattice, -1)


def test_sum_idempotent_and_absorption():
    F = GF(5)
    rng = random.Random(3)
    for _ in range(20):
        L1 = random_lattice(F, rng)
        L2 = random_lattice_same_ambient(F, rng, L1)
        assert lattice_sum(L1, L1) == L1
        assert lattice_intersect(L1, lattice_sum(L1, L2)) == L1
        assert lattice_sum(L1, lattice_intersect(L1, L2)) == L1


def random_lattice_same_ambient(F, rng, like):
    while True:
        gens = []
        for _ in range(like.rank + rng.randint(0, 2)):
            gens.append(
                (
                    rng.randint(-3, 3),
                    tuple(F.of_int(rng.randint(-2, 2)) for _ in range(like.rank)),
                )
            )
        try:
            return canonicalize(F, gens, like.p, like.q)
        except NotFullRank:
            continue


def test_x_times_lattice_is_contained():
    rng = random.Random(5)
    for _ in range(20):
        lat = random_lattice(QQ, rng)
        shifted = shift_lattice(lat, -1)  # x . L
        assert contains(lat, shifted)
        assert lattice_intersect(lat, shifted) == shifted


def test_sigma_involution_and_direct_sum():
    F = QQ
    L = rank_two(F, 3, 1).lattice
    assert sigma_lattice(sigma_lattice(L)) == L
    assert sigma_lattice(L) == L  # diagonal generator is symmetric
    A = rank_one(F, 0, 2).lattice
    S, e1, e2 = lattice_direct_sum(A, L)
    sum_object, ((f1, _), (f2, _)) = direct_sum_many([rank_one(F, 0, 2), rank_two(F, 3, 1)])
    assert (sum_object.lattice, _embedding(F, 3, f1, 1), _embedding(F, 3, f2, 2)) == (S, e1, e2)
    assert S.p == 2 and S.q == 1
    assert sorted(S.jump_list) == sorted(A.jump_list + L.jump_list)
    for j, dir in A.generators():
        assert membership(S, GradedVector(j, linalg.mat_vec(F, e1, dir)))


@st.composite
def lattices(draw, field=QQ, max_rank=3):
    p = draw(st.integers(min_value=0, max_value=max_rank - 1))
    q = draw(st.integers(min_value=0 if p else 1, max_value=max_rank - p))
    r = p + q
    n_extra = draw(st.integers(min_value=0, max_value=2))
    gens = [
        (
            draw(st.integers(min_value=-3, max_value=3)),
            tuple(field.of_int(draw(st.integers(min_value=-2, max_value=2))) for _ in range(r)),
        )
        for _ in range(r + n_extra)
    ]
    # ensure full rank by adding the standard basis at a high jump
    top = 4
    for i in range(r):
        gens.append((top, tuple(field.one if k == i else field.zero for k in range(r))))
    return canonicalize(field, gens, p, q)


@given(L=lattices())
def test_property_canonicalize_idempotent(L):
    assert canonicalize(QQ, L.generators(), L.p, L.q) == L


@given(L=lattices(), M=lattices())
def test_property_lattice_laws(L, M):
    if (L.p, L.q) != (M.p, M.q):
        return
    assert lattice_sum(L, L) == L
    assert lattice_intersect(L, lattice_sum(L, M)) == L
    assert contains(L, shift_lattice(L, -1))


def test_adapted_coords_roundtrip():
    F = QQ
    L = F20()
    gens = L.generators()
    v = tuple(
        F.add(F.mul(F.of_int(2), gens[0][1][i]), gens[1][1][i]) for i in range(2)
    )
    coeffs = adapted_coords(L, v, 2)
    assert coeffs == [F.of_int(2), F.one]
    assert adapted_coords(L, (F.one, F.zero), 1) is None


def test_adapted_coords_checks_length_and_solves_nothing(monkeypatch):
    F = QQ
    L = F20()  # generators (1, 1) at jump 0 and (0, 1) at jump 2
    # a vector of the wrong length is an error, not truncated or misindexed
    with pytest.raises(DimensionMismatch):
        adapted_coords(L, (F.one, F.one, F.of_int(5)), 0)
    with pytest.raises(DimensionMismatch):
        adapted_coords(L, (F.one,), 0)
    L.generator_inverse  # inverted once per lattice, on first use
    calls = []

    def rref(*args):
        calls.append(args)
        raise AssertionError("adapted_coords ran a row reduction")

    monkeypatch.setattr(linalg, "rref", rref)
    v = (F.one, F.of_int(6))
    assert adapted_coords(L, v, 2) == [F.one, F.of_int(5)]
    assert adapted_coords(L, v, 1) is None
    assert adapted_coords(L, (F.of_int(3), F.of_int(3)), 0) == [F.of_int(3), F.zero]
    assert adapted_coords(L, (F.zero, F.zero), -1) == [F.zero, F.zero]
    assert calls == []
