"""``linalg.mm`` against the triple loop of ``oracle_product``.

``mm`` runs on ``linalg.mat_vec``, one dot product per row of A and column
of B.  On seeded shapes over Q (int and Fraction entries), GF(2), GF(3)
and GF(10007), with zero rows, zero inner dimension and zero columns among
them, its ``repr`` must equal the oracle's, so every value and every
scalar's type agree.  ``mat_vec`` reads only the entries of each row at
v's nonzeros: fed rows that count their element reads, it reads
len(A) x nnz(v) of them, and its ``repr`` is the oracle's too.
"""

import random
from fractions import Fraction

import pytest

from oracle_product import product
from zdinfty import linalg
from zdinfty.fields import GF, QQ

FIELDS = [QQ, GF(2), GF(3), GF(10007)]
# (rows of A, inner, columns of B) that the seeded shapes may miss
EDGES = [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 0, 0), (2, 3, 0), (1, 1, 1)]


def _matrix(F, rng, m, n) -> tuple:
    """An m x n matrix, about a third of its entries zero; over Q a third
    of them Fractions."""
    def entry():
        r = rng.random()
        if r < 0.35:
            return F.zero
        if F.kind == "Q" and r < 0.7:
            return Fraction(rng.randint(-9, 9), rng.randint(2, 6))
        return F.of_int(rng.randint(-9, 9))
    return tuple(tuple(entry() for _ in range(n)) for _ in range(m))


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_mm_matches_the_triple_loop(F):
    rng = random.Random(F.p or 0)
    shapes = EDGES + [tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(150)]
    for m, inner, bcols in shapes:
        A, B = _matrix(F, rng, m, inner), _matrix(F, rng, inner, bcols)
        got = linalg.mm(F, A, B, inner, bcols)
        assert repr(got) == repr(product(F, A, B, inner, bcols)), (m, inner, bcols)
        assert len(got) == m and all(len(row) == bcols for row in got), (m, inner, bcols)


class _CountingRow(tuple):
    """A row that counts every entry read from it, by index or by walking it."""

    def __new__(cls, entries, reads):
        row = super().__new__(cls, entries)
        row.reads = reads
        return row

    def __getitem__(self, j):
        self.reads[0] += 1
        return super().__getitem__(j)

    def __iter__(self):
        for a in super().__iter__():
            self.reads[0] += 1
            yield a


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_mat_vec_reads_only_the_entries_at_v_nonzeros(F):
    rng = random.Random(1 + (F.p or 0))
    shapes = [(3, 4, 0), (0, 3, 1)] + [(rng.randint(1, 6), rng.randint(1, 6), None) for _ in range(60)]
    for m, n, nnz in shapes:
        A = _matrix(F, rng, m, n)
        v = list(_matrix(F, rng, 1, n)[0])
        if nnz == 0:
            v = [F.zero] * n
        reads = [0]
        counting = tuple(_CountingRow(row, reads) for row in A)
        got = linalg.mat_vec(F, counting, tuple(v))
        expected = tuple(row[0] for row in product(F, A, tuple((b,) for b in v), n, 1))
        assert repr(got) == repr(expected), (m, n)
        assert reads[0] == m * sum(1 for b in v if b), (m, n, v)
