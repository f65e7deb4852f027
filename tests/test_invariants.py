"""Invariants read off the canonical form against the search-and-solve reference.

``filtration`` reads the chain S & k^t off one canonical form with reversed
coordinates, ``singularity_index`` and ``y_linearity_bound`` are the largest
lag ``lattice.degree_of`` gives over the generators, and Hom and Ext
coordinates are read off their unit bases.  ``oracle_invariants`` keeps the
coordinate peel, the search over n and the solves.  Both are compared over
Q, F_2 and F_3 on the acceptance catalog and on 20 conjugated sums per
field, drawn as the krull-schmidt benchmark draws them.
"""

import random
import sys

import pytest

import oracle_decomp
import oracle_invariants as oracle
from zdinfty import homext, linalg
from zdinfty.decomp import end_ring, filtration
from zdinfty.errors import ShapeMismatch, ZdinftyError
from zdinfty.fields import GF, QQ
from zdinfty.homext import ExtClass, Morphism, ext_space, hom_space, identity_morphism
from zdinfty.lattice import membership
from zdinfty.objects import CObject, TorsionPart, direct_sum_many, rank_one, rank_two, torsion_cyclic
from zdinfty.singularity import singularity_index, y_linearity_bound

from test_acceptance import catalog

FIELDS = [QQ, GF(2), GF(3)]


def _conjugated_sums(F, seed=61, count=20):
    rng = random.Random(seed)
    shapes = [
        (r2, t, k - r2 - t)
        for k in range(1, 7)
        for r2 in range(k + 1)
        for t in range(k - r2 + 1)
        if 2 * r2 + (k - r2 - t) <= 5
    ]
    return [oracle_decomp.conjugated_sum(F, rng, rng.choice(shapes))[0] for _ in range(count)]


def _torsion_free(F):
    """The torsion-free catalog objects, and the lattice part of each sum."""
    objs = [X for X in catalog(F) if X.rank]
    return objs + [CObject(F, TorsionPart(()), X.lattice) for X in _conjugated_sums(F) if X.rank]


def _graded_span(F, gens, degrees):
    """The subspace spanned at each degree by the generators alive there."""
    return tuple(linalg.rref(F, [dir for jump, dir in gens if jump <= d])[0] for d in degrees)


def _combination(F, rng, space):
    """A random combination of the basis maps of a nonzero Hom space."""
    coeffs = [F.of_int(rng.randint(-2, 2)) for _ in space.basis]
    blocks = []
    for name in ("a00", "a11", "tt", "ft"):
        out = [[F.zero] * len(row) for row in getattr(space.basis[0], name)]
        for c, m in zip(coeffs, space.basis):
            for acc, row in zip(out, getattr(m, name)):
                for k, b in enumerate(row):
                    acc[k] = F.add(acc[k], F.mul(c, b))
        blocks.append(tuple(map(tuple, out)))
    return Morphism(space.src, space.dst, *blocks)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_filtration_matches_peel(F):
    for X in _torsion_free(F):
        got, want = filtration(X), oracle.filtration(X)
        assert got.labels == want.labels, X
        degrees = sorted({jump for jump, _ in X.lattice.generators()})
        assert len(got.chain) == len(want.chain) == X.rank + 1
        for term, ref in zip(got.chain, want.chain):
            assert _graded_span(F, term, degrees) == _graded_span(F, ref, degrees), X


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_index_and_bound_match_search(F):
    rng = random.Random(67)
    objs = _torsion_free(F)
    for X in objs:
        assert singularity_index(X) == oracle.singularity_index(X), X
    small = [X for X in objs if X.rank <= 2]
    pairs = [(X, Y) for X in small[::2] for Y in small[::2]]
    pairs += [(X, Y) for X, Y in zip(objs, objs[1:] + objs[:1])]
    checked = 0
    for X, Y in pairs:
        space = hom_space(X, Y)
        maps = list(space.basis) + [identity_morphism(X)] * (X == Y)
        maps += [_combination(F, rng, space)] if space.basis else []
        for f in maps:
            assert y_linearity_bound(f) == oracle.y_linearity_bound(f), (X, Y, f)
            checked += 1
    assert checked > 600


def _coords_or_none(space, v):
    try:
        return space.coordinates(v)
    except ShapeMismatch:
        raise
    except ZdinftyError:
        return None


def _coordinate_pairs(F):
    pool = catalog(F, m_max=3, n_max=3, a_bound=1)
    sums = _conjugated_sums(F)
    pairs = [(X, Y) for X in pool for Y in pool]
    pairs += [(X, X) for X in sums] + list(zip(sums, sums[1:] + sums[:1]))
    return pairs


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_hom_coordinates_match_solve(F):
    rng = random.Random(71)
    found = missed = 0
    for X, Y in _coordinate_pairs(F):
        space = hom_space(X, Y)
        maps = list(space.basis) + ([_combination(F, rng, space)] if space.basis else [])
        # maps that may lie off the span: a unit a00 entry, and a torsion
        # scalar on every pair of summands
        a00, a11 = linalg.zeros(F, Y.p, X.p), linalg.zeros(F, Y.q, X.q)
        tt = linalg.zeros(F, len(Y.torsion.summands), len(X.torsion.summands))
        ft = tuple((F.zero,) * Y.torsion.dim_at(e) for e, _ in X.lattice.generators())
        if X.p and Y.p:
            unit = linalg.unit_matrix(F, Y.p, X.p, [(0, 0)])
            maps.append(Morphism(X, Y, unit, a11, tt, ft))
        if X.torsion.summands and Y.torsion.summands:
            ones = tuple((F.one,) * len(X.torsion.summands) for _ in Y.torsion.summands)
            maps.append(Morphism(X, Y, a00, a11, ones, ft))
        for m in maps:
            got, want = _coords_or_none(space, m), oracle.hom_coordinates(space, m)
            assert got == want, (X, Y, m)
            found += got is not None
            missed += got is None
    assert found > 700 and missed > 150


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_ext_coordinates_match_solve(F):
    rng = random.Random(73)
    found = missed = 0

    def rand(n):
        return tuple(F.of_int(rng.randint(-2, 2)) for _ in range(n))

    for X, Y in _coordinate_pairs(F):
        space = ext_space(X, Y)
        h01 = tuple(rand(X.p) for _ in range(Y.q))
        h10 = tuple(rand(X.q) for _ in range(Y.p))
        tor = tuple(rand(Y.module_dim_at(n - a)) for n, a in X.torsion.summands)
        classes = list(space.basis) + [space.reduce(h01, h10, tor), ExtClass(X, Y, h01, h10, tor)]
        for c in classes:
            got, want = _coords_or_none(space, c), oracle.ext_coordinates(space, c)
            assert got == want, (X, Y, c)
            found += got is not None
            missed += got is None
    assert found > 1000 and missed > 150


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_end_ring_matches_solve(F):
    for X in catalog(F, m_max=3, n_max=3, a_bound=1) + _conjugated_sums(F)[:10]:
        assert end_ring(X).table == oracle.end_ring_table(X), X


def test_end_ring_flattens_the_basis_once(monkeypatch):
    # the flattened basis and its unit positions are found once per space,
    # so each of the dim^2 products is flattened once and nothing else is
    real, calls = homext.morphism_vector, []

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(homext, "morphism_vector", counting)
    X = direct_sum_many([
        rank_two(QQ, 1, 0), rank_two(QQ, 2, 1), rank_one(QQ, 0, 0),
        rank_one(QQ, 1, 2), torsion_cyclic(QQ, 2, 0), torsion_cyclic(QQ, 3, 1),
    ])[0]
    ring = end_ring(X)
    assert ring.dim == 20
    assert len(calls) == ring.dim + ring.dim ** 2


def test_linearity_bound_past_64():
    assert y_linearity_bound(identity_morphism(rank_two(QQ, 65, 0))) == 65
    assert singularity_index(rank_two(QQ, 65, 0)) == 65


def _count_membership(monkeypatch) -> list:
    """Count ``lattice.membership`` calls through every module binding it."""
    real, calls = membership, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "zdinfty" and getattr(mod, "membership", None) is real:
            monkeypatch.setattr(mod, "membership", counting)
    return calls


def test_index_and_bound_membership_calls(monkeypatch):
    calls = _count_membership(monkeypatch)
    big = direct_sum_many([rank_two(QQ, 40, 0), rank_two(QQ, 9, 3), rank_one(QQ, 1, -5)])[0]
    for X, index in ((rank_two(QQ, 65, 0), 65), (big, 40)):
        budget = len(X.lattice.generators()) * len(X.lattice.steps)
        del calls[:]
        assert singularity_index(X) == index
        assert len(calls) <= budget
        del calls[:]
        assert y_linearity_bound(identity_morphism(X)) == index
        assert len(calls) <= budget


def test_coordinates_reject_another_space():
    F = QQ
    pairs = [
        ((rank_one(F, 0, 2), rank_one(F, 1, 1)), (rank_one(F, 0, 3), rank_one(F, 1, 0))),
        ((torsion_cyclic(F, 1, 1), torsion_cyclic(F, 1, 0)), (torsion_cyclic(F, 1, 0), torsion_cyclic(F, 1, -1))),
    ]
    for here, there in pairs:
        space, other = ext_space(*here), ext_space(*there)
        assert space.dim == other.dim == 1
        with pytest.raises(ShapeMismatch):
            space.coordinates(other.basis[0])
    space, other = hom_space(rank_one(F, 0, 0), rank_one(F, 0, 1)), hom_space(rank_one(F, 0, 1), rank_one(F, 0, 2))
    assert space.coordinates(space.basis[0]) == (1,)
    with pytest.raises(ShapeMismatch):
        space.coordinates(other.basis[0])
