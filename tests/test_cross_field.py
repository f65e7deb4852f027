"""One object over every field: the answers that do not depend on the field.

Each of 60 seeded pairs of split sums, 1-4 summands each from F[m, a],
F0[a], F1[a] and T[n, a], has its lattices conjugated by type-diagonal
integer unimodular matrices, each a product of elementary matrices.  A
unimodular integer matrix is invertible over Q and over every F_p, so the
same integer matrices give, over Q, GF(2), GF(3) and GF(10007), an object
isomorphic to the split sum.  The dimensions of Hom and Ext, through the
factors and by the whole-system count (``oracle_frame``), the Serre
verdict and Gram rank, and both Krull-Schmidt label lists must then agree
across the four fields, and the labels must be the summands drawn.  A path
that is right over F_p and wrong over Q (or the reverse) fails here.
"""

import random

from zdinfty import linalg
from zdinfty.decomp import decompose, dimensions
from zdinfty.fields import GF, QQ
from zdinfty.homext import serre_check
from zdinfty.lattice import canonicalize
from zdinfty.objects import CObject, direct_sum_many, rank_one, rank_two, torsion_cyclic

from oracle_frame import frame_dimensions

FIELDS = [QQ, GF(2), GF(3), GF(10007)]
PAIRS = 60
MAKE = {"rank_two": rank_two, "rank_one": rank_one, "torsion": torsion_cyclic}
NAMES = {"rank_two": "F[{},{}]", "rank_one": "F{}[{}]", "torsion": "T[{},{}]"}


def _sum(F, summands) -> CObject:
    return direct_sum_many([MAKE[kind](F, s, a) for kind, s, a in summands])[0]


def _unimodular(rng, n) -> list:
    """An n x n integer matrix of determinant 1: a product of elementary
    matrices I + c E_ij, c in [-2, 2], i != j."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


def _draw(rng) -> tuple:
    """(summands, u0, u1): 1-4 summands (kind, size, a), each F[m, a],
    F0[a], F1[a] or T[n, a], and integer matrices sized to their (p, q)."""
    kinds = [("rank_two", 1, 3), ("rank_one", 0, 1), ("torsion", 1, 3)]
    summands = [
        (kind, rng.randint(lo, hi), rng.randint(-2, 2))
        for kind, lo, hi in (rng.choice(kinds) for _ in range(rng.randint(1, 4)))
    ]
    X = _sum(QQ, summands)
    return summands, _unimodular(rng, X.p), _unimodular(rng, X.q)


def _build(F, draw) -> CObject:
    """The drawn sum over F, its lattice conjugated by (u0, u1)."""
    summands, u0, u1 = draw
    X = _sum(F, summands)
    if not X.rank:
        return X
    u0, u1 = ([tuple(map(F.of_int, row)) for row in u] for u in (u0, u1))
    gens = [
        (e, linalg.mat_vec(F, u0, d[: X.p]) + linalg.mat_vec(F, u1, d[X.p:]))
        for e, d in X.lattice.generators()
    ]
    return CObject(F, X.torsion, canonicalize(F, gens, X.p, X.q))


def _labels(draw) -> list:
    return sorted(NAMES[kind].format(s, a) for kind, s, a in draw[0])


def _answers(F, draws) -> tuple:
    X, Y = (_build(F, draw) for draw in draws)
    report = serre_check(X, Y)
    factors = [sorted(map(str, decompose(Z).factors)) for Z in (X, Y)]
    return dimensions(X, Y), frame_dimensions(X, Y), report.passed, report.gram_rank, factors


def test_one_pair_gives_one_answer_over_every_field():
    rng = random.Random(22)
    pairs = [(_draw(rng), _draw(rng)) for _ in range(PAIRS)]
    conjugated = 0
    for draws in pairs:
        answers = [_answers(F, draws) for F in FIELDS]
        assert all(a == answers[0] for a in answers), (draws, answers)
        _, _, passed, _, factors = answers[0]
        assert passed and factors == [_labels(draw) for draw in draws], (draws, answers[0])
        conjugated += any(len(u) > 1 for draw in draws for u in draw[1:])
    assert conjugated >= PAIRS // 2, conjugated
