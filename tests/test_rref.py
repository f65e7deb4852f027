"""Differential test of the elimination kernel against the field-generic oracle.

``linalg.Echelon``, the kernel under ``linalg.rref``, runs fraction-free on
integers over Q and on ints modulo p over F_p; ``oracle_rref.rref`` is the
plain Gauss-Jordan loop over field operations.  An ``Echelon`` fed one row
at a time must report rank growth and give the oracle's reduced form after
every row.  Every routine built on the kernel (nullspace, solve, inverse,
rank, span) is run once with each and must give exactly the same result,
with every F_p entry an int in [0, p) and every Q entry an exact rational:
an ``int`` when its value is integral and a ``Fraction`` when it is not,
never a float or a bool.  The Q inputs mix ints, integral Fractions and
proper Fractions, as Q scalars do.  ``rank`` counts the rows of one
``Echelon`` and no longer calls ``rref``, so it is also compared with the
row count of both eliminations directly, and shown to build no reduced or
rational rows.
"""

import random
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from zdinfty import linalg
from zdinfty.errors import DimensionMismatch
from zdinfty.fields import GF, QQ

import oracle_rref

FIELDS = [QQ, GF(2), GF(3), GF(10007)]


def scalars(F):
    if F.p is not None:
        return st.integers(min_value=0, max_value=F.p - 1)
    den = st.integers(min_value=1, max_value=7)
    small = st.builds(Fraction, st.integers(min_value=-9, max_value=9), den)
    big = st.builds(Fraction, st.integers(min_value=-(2 ** 200), max_value=2 ** 200), den)
    ints = st.integers(min_value=-9, max_value=9)
    return st.one_of(st.just(F.zero), ints, small, small, small, big)


@st.composite
def matrices(draw, F):
    """An m x n matrix (m <= 8, n <= 9) with some zero, repeated and scaled rows."""
    m = draw(st.integers(min_value=0, max_value=8))
    n = draw(st.integers(min_value=0, max_value=9))
    rows = []
    for i in range(m):
        kind = draw(st.sampled_from(["new", "new", "new", "zero", "copy", "scaled"]))
        if kind == "zero":
            rows.append((F.zero,) * n)
        elif kind != "new" and rows:
            row = rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))]
            c = draw(scalars(F)) if kind == "scaled" else F.one
            rows.append(tuple(F.mul(c, a) for a in row))
        else:
            rows.append(tuple(draw(st.lists(scalars(F), min_size=n, max_size=n))))
    return tuple(rows), n


def _kernel_results(F, A, n, b):
    k = min(len(A), n)
    square = tuple(row[:k] for row in A[:k])
    return {
        "rref": linalg.rref(F, A),
        "nullspace": linalg.nullspace(F, A, n),
        "solve": linalg.solve(F, A, b),
        "inverse": linalg.inverse(F, square),
        "rank": linalg.rank(F, A),
        "span": linalg.rref(F, A)[0],
    }


def _entries(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _entries(item)
    elif value is not None:
        yield value


@pytest.mark.parametrize("F", FIELDS, ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_matches_generic_elimination(F, data):
    A, n = data.draw(matrices(F))
    b = tuple(data.draw(st.lists(scalars(F), min_size=len(A), max_size=len(A))))
    got = _kernel_results(F, A, n, b)
    with mock.patch.object(linalg, "rref", oracle_rref.rref):
        want = _kernel_results(F, A, n, b)
    assert got == want
    red, pivots = got["rref"]
    assert all(type(j) is int for j in pivots)
    for value in (red, got["nullspace"], got["solve"], got["inverse"], got["span"]):
        for x in _entries(value):
            if F.p is None:
                assert type(x) is (int if x.denominator == 1 else Fraction)
            else:
                assert type(x) is int and 0 <= x < F.p


@pytest.mark.parametrize("F", FIELDS, ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_echelon_matches_generic_elimination_after_each_add(F, data):
    A, _ = data.draw(matrices(F))
    ech = linalg.Echelon(F)
    for k, row in enumerate(A):
        before = len(oracle_rref.rref(F, A[:k])[0])
        arg = list(row)
        grew = ech.add(arg)
        want = oracle_rref.rref(F, A[: k + 1])
        assert grew == (len(want[0]) > before)
        assert ech.reduced() == want
        assert len(ech) == len(want[0])
        assert arg == list(row)
    for x in _entries(ech.reduced()[0]):
        if F.p is None:
            assert type(x) is (int if x.denominator == 1 else Fraction)
        else:
            assert type(x) is int and 0 <= x < F.p


def _lcm_form(row):
    """The primitive integer multiple of a row by way of its common denominator."""
    den = lcm(*[a.denominator for a in row])
    ints = [a.numerator * (den // a.denominator) for a in row]
    g = gcd(*ints)
    return [a // g for a in ints] if g > 1 else ints


def test_integer_row_matches_lcm_form():
    rng = random.Random(89)
    for _ in range(500):
        row = []
        for _ in range(rng.randint(0, 7)):
            num, den = rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 6, 7])
            row.append(num if den == 1 and rng.random() < 0.7 else Fraction(num, den))
        got = linalg._integer_row(tuple(row))
        assert list(got) == _lcm_form(row), row
        assert all(type(a) is int for a in got), row


def test_integer_row_of_ints_skips_the_denominators():
    def refuse(*args):
        raise AssertionError("an all-int row took the lcm pass")

    with mock.patch.object(linalg, "lcm", refuse):
        assert list(linalg._integer_row((4, -6, 0, 10))) == [2, -3, 0, 5]
        assert list(linalg._integer_row((3, -5, 0))) == [3, -5, 0]
        assert linalg.rref(QQ, [(4, -6), (1, 1)]) == (((1, 0), (0, 1)), (0, 1))


@pytest.mark.parametrize("F", [QQ, GF(2), GF(3)], ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rank_counts_the_rref_rows(F, data):
    A, _ = data.draw(matrices(F))
    assert linalg.rank(F, A) == len(linalg.rref(F, A)[0]) == len(oracle_rref.rref(F, A)[0])


@pytest.mark.parametrize("F", [QQ, GF(2), GF(3)], ids=str)
def test_rank_of_ragged_rows_raises(F):
    with pytest.raises(DimensionMismatch):
        linalg.rank(F, [(F.one, F.zero), (F.one,)])


def test_rank_builds_no_reduced_rows():
    counts = {"reduced": 0, "_rational_row": 0}
    real_reduced, real_rational = linalg.Echelon.reduced, linalg._rational_row

    def reduced(self):
        counts["reduced"] += 1
        return real_reduced(self)

    def rational_row(*args):
        counts["_rational_row"] += 1
        return real_rational(*args)

    A = ((2, Fraction(1, 3), 5), (Fraction(4, 7), 1, 0), (3, 0, Fraction(-1, 2)))
    with mock.patch.object(linalg.Echelon, "reduced", reduced), \
            mock.patch.object(linalg, "_rational_row", rational_row):
        assert linalg.rank(QQ, A) == 3
        assert linalg.rank(GF(3), ((1, 2), (2, 1))) == 1
        assert counts == {"reduced": 0, "_rational_row": 0}
        linalg.rref(QQ, A)  # the counters do see the path that builds rows
    assert counts["reduced"] == 1 and counts["_rational_row"] > 0


@pytest.mark.parametrize("F", [QQ, GF(2), GF(3)], ids=str)
def test_empty_matrices_invert_and_transpose_to_empty(F):
    assert linalg.inverse(F, ()) == ()
    assert linalg.transpose(()) == ()
    assert linalg.transpose([]) == ()
