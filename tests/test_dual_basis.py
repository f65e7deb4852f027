"""Filtration queries read off the inverse generator matrix.

``membership``, ``degree_of``, ``annihilator_at`` and ``lattice_intersect``
all read ``GradedLattice._dual``: the rows of ``generator_inverse``, each up
to a nonzero factor (over Q scaled to primitive integer rows, over F_p the
inverse itself), which is all a query of where a row vanishes needs;
``adapted_coords`` needs the exact rows and reads ``generator_inverse``.
``test_integral_dual`` checks the rows against the exact inverse.  Each
query is compared, over Q, F_2 and F_3, with a path that never forms it:
``degree_of`` with the scan over the steps
(``oracle_membership.step_degree``), ``membership`` with the
k[x]-linear solve (``oracle_membership.kx_membership``), and the meet with
the stacked-kernel intersection of each step
(``oracle_goursat.intersect_rowspaces``).  The lattices are seeded random
lattices, conjugated sums drawn as the krull-schmidt benchmark draws them,
and the rank-zero lattice; the vectors include zero.
"""

import random
from collections import Counter

import pytest

from zdinfty import linalg
from zdinfty.fields import GF, QQ
from zdinfty.lattice import (
    GradedVector,
    canonicalize,
    degree_of,
    lattice_intersect,
    membership,
)
from zdinfty.objects import direct_sum_many, rank_two

from oracle_decomp import conjugated_sum, random_invertible
from oracle_goursat import intersect_rowspaces
from oracle_membership import contains, kx_membership, step_degree
from oracle_slots import max_jump
from test_lattice import random_lattice

SHAPES = [
    (r2, t, k - r2 - t)
    for k in range(1, 7)
    for r2 in range(k + 1)
    for t in range(k - r2 + 1)
    if 2 * r2 + (k - r2 - t) <= 5
]


def _lattices(F, seed, count=30):
    rng = random.Random(seed)
    out = [random_lattice(F, rng, max_rank=4) for _ in range(count)]
    out += [conjugated_sum(F, rng, rng.choice(SHAPES))[0].lattice for _ in range(count)]
    return rng, out


def _vectors(F, rng, L):
    """Zero, each generator direction, sums of two of them and a few random
    vectors."""
    dirs = [d for _, d in L.generators()]
    out = [(F.zero,) * L.rank] + dirs
    out += [linalg.vec_add(F, u, v) for u, v in zip(dirs, dirs[1:])]
    out += [tuple(F.of_int(rng.randint(-2, 2)) for _ in range(L.rank)) for _ in range(3)]
    return out


def _degrees(L):
    return range(L.jump_list[0] - 1, max_jump(L) + 2) if L.rank else (0,)


@pytest.mark.parametrize("F,seed", [(QQ, 31), (GF(2), 32), (GF(3), 33)], ids=str)
def test_degree_of_matches_the_step_scan(F, seed):
    rng, lattices = _lattices(F, seed)
    assert any(L.rank == 0 for L in lattices)
    for L in lattices:
        for v in _vectors(F, rng, L):
            d = degree_of(L, v)
            assert d == step_degree(L, v), (L, v)
            assert (d is None) == (not any(v))


@pytest.mark.parametrize("F,seed", [(QQ, 41), (GF(2), 42), (GF(3), 43)], ids=str)
def test_membership_matches_the_kx_solve(F, seed):
    rng, lattices = _lattices(F, seed)
    for L in lattices:
        for v in _vectors(F, rng, L):
            for d in _degrees(L):
                got = membership(L, GradedVector(d, v))
                assert got == kx_membership(F, L.generators(), d, v), (L, d, v)


def _perturbed(F, rng, L):
    """A lattice in the ambient space of L: its generators moved by a
    type-diagonal invertible matrix, each jump moved by up to 2."""
    u0 = random_invertible(F, rng, L.p) if L.p else ()
    u1 = random_invertible(F, rng, L.q) if L.q else ()
    gens = []
    for e, d in L.generators():
        top = linalg.mat_vec(F, u0, d[: L.p]) if L.p else ()
        bot = linalg.mat_vec(F, u1, d[L.p:]) if L.q else ()
        gens.append((e + rng.randint(-2, 2), tuple(top) + tuple(bot)))
    return canonicalize(F, gens, L.p, L.q)


@pytest.mark.parametrize("F,seed", [(QQ, 51), (GF(2), 52), (GF(3), 53)], ids=str)
def test_meet_matches_stacked_kernel_intersection(F, seed):
    rng, lattices = _lattices(F, seed)
    for L1 in lattices:
        L2 = _perturbed(F, rng, L1)
        degrees = sorted({j for j, _ in L1.steps} | {j for j, _ in L2.steps})
        want = canonicalize(F, [
            (d, w) for d in degrees
            for w in intersect_rowspaces(F, L1.subspace_at(d), L2.subspace_at(d))
        ], L1.p, L1.q)
        meet = lattice_intersect(L1, L2)
        assert meet == want, (L1, L2)
        assert lattice_intersect(L1, L1) == L1
        assert contains(L1, meet) and contains(L2, meet)


def test_every_query_reads_one_inverse(monkeypatch):
    # a sum of 20 rank-two objects whose jumps fall on 30 degrees
    F = QQ
    L = direct_sum_many([rank_two(F, 10 + i % 10, -i) for i in range(20)])[0].lattice
    assert len(L.steps) == 30
    counts = Counter()
    for name in ("inverse", "nullspace", "rref"):
        real = getattr(linalg, name)

        def counted(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(linalg, name, counted)

    def ask_everything():
        for d in range(L.jump_list[0] - 1, max_jump(L) + 2):
            L.annihilator_at(d)
            for v in linalg.identity(F, L.rank):
                membership(L, GradedVector(d, v))
        for _, v in L.generators():
            degree_of(L, v)

    ask_everything()
    assert counts == {"inverse": 1, "rref": 1}
    counts.clear()
    ask_everything()
    assert counts == {}
