"""Dense exact linear algebra over a :class:`~zdinfty.fields.FieldSpec`.

Vectors are tuples of scalars, matrices are tuples of row tuples.  Over Q
every entry this module returns from an elimination (``rref``, ``span``,
``solve``, ``nullspace``, ``inverse``) is an exact rational: an ``int`` when
it is integral, a :class:`~fractions.Fraction` otherwise, never a float;
scalars compare by value, so the type never changes a result.  Subspaces
are kept as reduced-echelon bases (each basis vector a row, pivots chosen at
the lowest coordinate index), which makes every canonical form bit-identical
across runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch
from .fields import FieldSpec, Scalar

Vector = tuple
Matrix = tuple


def zeros(F: FieldSpec, m: int, n: int) -> Matrix:
    """The m x n zero matrix; rows are immutable, so all m share one."""
    return ((F.zero,) * n,) * m


def identity(F: FieldSpec, n: int) -> Matrix:
    z, o = F.zero, F.one
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def unit_matrix(F: FieldSpec, m: int, n: int, ones: Iterable[tuple[int, int]]) -> Matrix:
    """The m x n matrix with a one at each (row, column) of ``ones``.

    As in :func:`zeros`, the rows holding no one share one zero row."""
    zero_row = (F.zero,) * n
    rows = [zero_row] * m
    for i, j in ones:
        row = list(rows[i])
        row[j] = F.one
        rows[i] = tuple(row)
    return tuple(rows)


def is_zero_vector(F: FieldSpec, v: Sequence[Scalar]) -> bool:
    return not any(v)


def vec_add(F: FieldSpec, u: Sequence, v: Sequence) -> Vector:
    return tuple(F.add(a, b) for a, b in zip(u, v))


def vec_scale(F: FieldSpec, c: Scalar, v: Sequence) -> Vector:
    return tuple(F.mul(c, a) for a in v)


def mat_add(F: FieldSpec, A: Sequence, B: Sequence) -> Matrix:
    return tuple(vec_add(F, ra, rb) for ra, rb in zip(A, B))


def mat_scale(F: FieldSpec, c: Scalar, A: Sequence) -> Matrix:
    return tuple(vec_scale(F, c, row) for row in A)


def mat_vec(F: FieldSpec, A: Sequence, v: Sequence) -> Vector:
    if A and len(A[0]) != len(v):
        raise DimensionMismatch(f"matrix has {len(A[0])} columns, vector length {len(v)}")
    add, mul = F.add, F.mul
    out = []
    for row in A:
        acc = F.zero
        for a, b in zip(row, v):
            if a and b:
                acc = add(acc, mul(a, b))
        out.append(acc)
    return tuple(out)


def mm(F: FieldSpec, A: Sequence, B: Sequence, inner: int, bcols: int) -> Matrix:
    """Matrix product: A is len(A) x inner, B is inner x bcols.

    Plain tuples cannot carry the column count of a zero-row matrix, so the
    inner dimension and output width are passed explicitly.
    """
    if len(B) != inner or (A and len(A[0]) != inner):
        raise DimensionMismatch(f"cannot multiply {len(A)}x{inner} by {len(B)}x{bcols}")
    add, mul, zero = F.add, F.mul, F.zero
    out = []
    for arow in A:
        acc = [zero] * bcols
        for a, brow in zip(arow, B):
            if a:
                for j, b in enumerate(brow):
                    if b:
                        acc[j] = add(acc[j], mul(a, b))
        out.append(tuple(acc))
    return tuple(out)


def transpose(A: Sequence) -> Matrix:
    if not A:
        return ()
    return tuple(zip(*A))


def trace(F: FieldSpec, A: Sequence) -> Scalar:
    acc = F.zero
    for i, row in enumerate(A):
        acc = F.add(acc, row[i])
    return acc


def _integer_row(row: Sequence) -> Sequence:
    """The primitive integer multiple of a row of rationals.  A row of ints,
    the common case, skips the denominators and comes back as it is unless
    it has a content to divide out (``rref`` never writes into a row)."""
    if not all(type(a) is int for a in row):
        den = lcm(*[a.denominator for a in row])
        row = [a.numerator * (den // a.denominator) for a in row]
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def rref(F: FieldSpec, rows: Iterable[Sequence]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form.

    Returns the nonzero rows and the pivot column of each row.  Pivots are
    found scanning columns left to right, so they sit at the lowest possible
    coordinate indices.

    Over Q the elimination is fraction-free: each row is cleared of its
    denominators once, a row is updated by cross-multiplying with the pivot
    row and dividing out its content, and only the returned rows are turned
    back into rationals (each divided by its pivot entry, an ``int`` where
    the quotient is integral, a Fraction elsewhere).  Over F_p the same
    loop runs on ints reduced modulo p, with each pivot row scaled to 1.  The
    reduced echelon form is unique, so both give the field-generic result.
    """
    p = F.p
    work = [list(r) if p else _integer_row(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    for r in work:
        if len(r) != ncols:
            raise DimensionMismatch("rows of differing length")
    nrows = len(work)
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        for piv in range(rank, nrows):
            if work[piv][col]:
                break
        else:
            continue
        prow = work[piv]
        work[piv] = work[rank]
        d = prow[col]
        if p:
            inv = pow(d, p - 2, p)
            prow = [a * inv % p for a in prow]
        work[rank] = prow
        for i, row in enumerate(work):
            c = row[col]
            if not c or i == rank:
                continue
            if p:
                work[i] = [(a - c * b) % p for a, b in zip(row, prow)]
            else:
                row = [d * a - c * b for a, b in zip(row, prow)]
                g = gcd(*row)
                work[i] = [a // g for a in row] if g > 1 else row
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    red = work[:rank]
    if not p:
        red = [_rational_row(row, row[col]) for row, col in zip(red, pivots)]
    return tuple(map(tuple, red)), tuple(pivots)


def _rational_row(row: list, d: int) -> list:
    """A primitive integer row divided by its pivot entry ``d``.

    Each entry is an ``int`` where ``d`` divides it and a Fraction only
    where it does not.  The row is primitive, so a unit ``d`` divides every
    entry and the row needs one multiplication per entry.
    """
    if d == 1:
        return row
    if d == -1:
        return [-a for a in row]
    return [Fraction(a, d) if a % d else a // d for a in row]


def span(F: FieldSpec, vectors: Iterable[Sequence]) -> Matrix:
    """Canonical reduced-echelon basis of the span of the given vectors."""
    return rref(F, vectors)[0]


def rank(F: FieldSpec, A: Sequence) -> int:
    return len(rref(F, A)[0])


def reduce_against(F: FieldSpec, basis: Sequence, pivots: Sequence[int], v: Sequence) -> Vector:
    """Subtract the pivot components of an echelon basis from ``v``.

    The result is the canonical coset representative of ``v`` modulo the
    span of ``basis``; it is zero exactly when ``v`` lies in that span.
    """
    sub, mul = F.sub, F.mul
    w = list(v)
    for row, col in zip(basis, pivots):
        c = w[col]
        if c:
            for j, a in enumerate(row):
                if a:
                    w[j] = sub(w[j], mul(c, a))
    return tuple(w)


def in_span(F: FieldSpec, basis: Sequence, pivots: Sequence[int], v: Sequence) -> bool:
    return is_zero_vector(F, reduce_against(F, basis, pivots, v))


def coords_in_basis(F: FieldSpec, basis: Sequence, v: Sequence) -> Vector | None:
    """Coefficients expressing ``v`` in ``basis`` (rows), or None."""
    if not basis:
        return () if is_zero_vector(F, v) else None
    At = transpose(basis)
    return solve(F, At, v)


def solve(F: FieldSpec, A: Sequence, b: Sequence) -> Vector | None:
    """One solution of ``A x = b``, or None if inconsistent."""
    m = len(A)
    n = len(A[0]) if m else 0
    aug = [list(A[i]) + [b[i]] for i in range(m)]
    red, pivots = rref(F, aug)
    x = [F.zero] * n
    for row, col in zip(red, pivots):
        if col == n:
            return None
        x[col] = row[n]
    return tuple(x)


def nullspace(F: FieldSpec, A: Sequence, ncols: int | None = None) -> Matrix:
    """Echelonized basis of the right kernel of ``A`` (rows are kernel vectors).

    ``ncols`` pins the column count when ``A`` has no rows.
    """
    m = len(A)
    n = len(A[0]) if m else (ncols or 0)
    if m == 0:
        return identity(F, n)
    if n == 0:
        return ()
    red, pivots = rref(F, A)
    pivset = set(pivots)
    free = [j for j in range(n) if j not in pivset]
    basis = []
    for f in free:
        v = [F.zero] * n
        v[f] = F.one
        for row, col in zip(red, pivots):
            v[col] = F.neg(row[f])
        basis.append(tuple(v))
    return tuple(basis)


def inverse(F: FieldSpec, A: Sequence) -> Matrix | None:
    n = len(A)
    if any(len(r) != n for r in A):
        raise DimensionMismatch("inverse of a non-square matrix")
    if n == 0:
        return ()
    aug = [list(A[i]) + [F.one if i == j else F.zero for j in range(n)] for i in range(n)]
    red, pivots = rref(F, aug)
    if len(red) < n or list(pivots) != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in red)
