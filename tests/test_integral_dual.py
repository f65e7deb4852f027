"""The dual rows ``GradedLattice._dual`` against the exact inverse.

Over Q each row of ``_dual`` is the matching row of ``generator_inverse``
scaled to a primitive integer row; over F_p ``_dual`` is that tuple.  The
filtration queries ask only where a dual functional vanishes, so
``annihilator_at`` (by the subspace it cuts out), ``membership``,
``degree_of``, ``lattice_intersect`` and ``homext._constant_matrix_solutions``
must give, tuple for tuple, what the ``inverse_*`` references of
``oracle_membership`` give from the exact rows.  The lattices are those
``test_dual_basis`` draws: seeded random lattices, conjugated sums drawn as
the krull-schmidt benchmark draws them, and the rank-zero lattice.
"""

from fractions import Fraction
from math import gcd

import pytest

from zdinfty import linalg
from zdinfty.fields import GF, QQ
from zdinfty.homext import _constant_matrix_solutions, _hom_count
from zdinfty.lattice import GradedVector, degree_of, lattice_intersect, membership
from zdinfty.objects import CObject, TorsionPart

from oracle_membership import (
    inverse_annihilator,
    inverse_constant_matrix_solutions,
    inverse_degree,
    inverse_intersect,
    inverse_membership,
)
from test_dual_basis import _degrees, _lattices, _perturbed, _vectors

CASES = [(QQ, 61), (GF(2), 62), (GF(3), 63)]


def _is_multiple(F, row, ref) -> bool:
    """Whether ``row`` is c * ``ref`` for a nonzero scalar c."""
    if len(row) != len(ref) or not any(ref):
        return False
    k = next(k for k, a in enumerate(ref) if a)
    c = F.div(row[k], ref[k])
    return bool(c) and all(a == F.mul(c, b) for a, b in zip(row, ref))


def test_the_q_lattices_include_a_non_integral_inverse():
    _, lattices = _lattices(QQ, 61)
    assert any(
        type(a) is Fraction for L in lattices for row in L.generator_inverse for a in row
    )


@pytest.mark.parametrize("F,seed", CASES, ids=str)
def test_dual_rows_are_scaled_inverse_rows(F, seed):
    _, lattices = _lattices(F, seed)
    assert any(L.rank == 0 for L in lattices)
    for L in lattices:
        dual, inv = L._dual, L.generator_inverse
        assert len(dual) == len(inv) == L.rank
        if F.p:
            assert dual is inv
            continue
        for row, ref in zip(dual, inv):
            assert _is_multiple(F, row, ref), (L, row, ref)
            assert type(row) is tuple and all(type(a) is int for a in row), (L, row)
            assert gcd(*row) == 1, (L, row)


@pytest.mark.parametrize("F,seed", CASES, ids=str)
def test_filtration_queries_match_the_inverse(F, seed):
    rng, lattices = _lattices(F, seed)
    for L in lattices:
        vectors = _vectors(F, rng, L)
        for v in vectors:
            assert degree_of(L, v) == inverse_degree(L, v), (L, v)
        for d in _degrees(L):
            ann, ref = L.annihilator_at(d), inverse_annihilator(L, d)
            assert ann == L._dual[L.dim_at(d):], (L, d)
            assert all(_is_multiple(F, row, r) for row, r in zip(ann, ref)), (L, d)
            if F.p:
                assert ann == ref, (L, d)
            assert linalg.nullspace(F, ann, L.rank) == linalg.nullspace(F, ref, L.rank)
            for v in vectors:
                w = GradedVector(d, v)
                assert membership(L, w) == inverse_membership(L, w), (L, w)


@pytest.mark.parametrize("F,seed", CASES, ids=str)
def test_meet_and_constant_maps_match_the_inverse(F, seed):
    rng, lattices = _lattices(F, seed)
    torsion = TorsionPart(())
    for L1 in lattices:
        L2 = _perturbed(F, rng, L1)
        assert lattice_intersect(L1, L2) == inverse_intersect(L1, L2), (L1, L2)
        X, Y = CObject(F, torsion, L1), CObject(F, torsion, L2)
        for A, B in ((X, Y), (Y, X), (X, X)):
            got = _constant_matrix_solutions(A, B, _hom_count(A, B)[0])
            assert got == inverse_constant_matrix_solutions(A, B), (A, B)
