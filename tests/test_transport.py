"""Lattice-to-torsion transport against the term-by-term reference.

``homext`` reads adapted coordinates off the cached inverse generator matrix
and moves each lattice generator's torsion image up the bars with one gather
on the live summands; ``hom_kx_space`` solves the block-diagonal system on
copies of its objects typed (rank, 0).  ``oracle_slots`` keeps the solve for
the coordinates, the sums of dense x-power products, and the solve on all
rank x rank unknowns.  Both are compared over Q, F_2 and F_3 on the
acceptance catalog and on 20 seeded mixed sums per field.
"""

import random

import pytest

import oracle_slots as oracle
from zdinfty import linalg
from zdinfty.fields import GF, QQ
from zdinfty.homext import (
    compose,
    ext_space,
    hom_kx_space,
    hom_space,
    serre_twist_morphism,
    yoneda_compose,
)
from zdinfty.lattice import adapted_coords
from zdinfty.objects import CObject, TorsionPart, direct_sum_many

from test_acceptance import catalog

FIELDS = [QQ, GF(2), GF(3)]


def _mixed_sums(F, seed=41, count=20):
    """Sums of 0-2 catalog objects (m, n <= 3, |a| <= 2), one lattice object
    and one torsion atom, so that each has both parts."""
    rng = random.Random(seed)
    pool = catalog(F, m_max=3, n_max=3, a_bound=2)
    lattices = [X for X in pool if X.rank]
    atoms = [X for X in pool if not X.rank]
    return [
        direct_sum_many(
            rng.sample(pool, rng.randint(0, 2)) + [rng.choice(lattices), rng.choice(atoms)]
        )[0]
        for _ in range(count)
    ]


def _sum_triples(F):
    """Triples (X, Y, Z) of mixed sums: X and Z equal and Y any sum, or three
    consecutive sums."""
    sums = _mixed_sums(F)
    triples = [(X, Y, X) for X in sums for Y in sums]
    triples += [tuple(sums[(i + k) % len(sums)] for k in range(3)) for i in range(len(sums))]
    return triples


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_adapted_coords_match_solve(F):
    rng = random.Random(43)
    found = missed = 0
    for X in catalog(F) + _mixed_sums(F):
        L = X.lattice
        gens = L.generators()
        for e in {jump for jump, _ in gens}:
            for d in range(e - 1, e + 3):
                # the directions, unit vectors, and random combinations of
                # the directions alive at d and of all of them
                vectors = [dir for _, dir in gens] + list(linalg.identity(F, L.rank))
                for n in (L.dim_at(d), len(gens)):
                    coeffs = tuple(F.of_int(rng.randint(-3, 3)) for _ in range(n))
                    dirs = tuple(dir for _, dir in gens[:n])
                    vectors += linalg.mm(F, (coeffs,), dirs, n, L.rank)
                for v in vectors:
                    got = adapted_coords(L, v, d)
                    assert got == oracle.adapted_coords(L, v, d), (L, v, d)
                    found += got is not None
                    missed += got is None
    assert found > 1000 and missed > 500


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_compose_and_twist_match_reference(F):
    objs = catalog(F)
    hom = {}

    def basis(X, Y):
        if (X, Y) not in hom:
            hom[X, Y] = hom_space(X, Y).basis
        return hom[X, Y]

    triples = [(X, Y, X) for X in objs for Y in objs] + _sum_triples(F)
    moved = 0
    for X, Y, Z in triples:
        for f in basis(X, Y):
            assert serre_twist_morphism(f) == oracle.serre_twist_morphism(f), f
            for g in basis(Y, Z):
                h = compose(g, f)
                assert h == oracle.compose(g, f), (g, f)
                moved += any(map(any, h.ft))
    assert moved > 300


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_hom_kx_space_matches_full_solve(F):
    objs = [X for X in catalog(F) if X.is_torsion_free()]
    objs += [CObject(F, TorsionPart(()), X.lattice) for X in _mixed_sums(F)]
    for X in objs:
        for Y in objs:
            assert hom_kx_space(X, Y) == oracle.hom_kx_space(X, Y), (X, Y)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_class_after_morphism_matches_reference(F):
    sums = _mixed_sums(F)
    sources = catalog(F, m_max=2, n_max=3, a_bound=2)[::2] + sums
    pairs = [(X, X) for X in sums] + list(zip(sums, sums[1:]))
    triples = [(Xp, X, Y) for Xp in sources for X, Y in pairs]
    dragged = 0
    for Xp, X, Y in triples:
        classes = ext_space(X, Y).basis
        for f in hom_space(Xp, X).basis:
            for g in classes:
                c = yoneda_compose(g, f)
                assert c == oracle.class_after_morphism(g, f), (g, f)
                dragged += any(map(any, f.ft)) and not c.is_zero()
    assert dragged > 100
