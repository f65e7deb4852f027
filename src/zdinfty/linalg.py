"""Dense exact linear algebra over a :class:`~zdinfty.fields.FieldSpec`.

Vectors are tuples of scalars, matrices are tuples of row tuples.  Subspaces
are kept as reduced-echelon bases (each basis vector a row, pivots chosen at
the lowest coordinate index), which makes every canonical form bit-identical
across runs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DimensionMismatch
from .fields import FieldSpec, Scalar

Vector = tuple
Matrix = tuple


def zeros(F: FieldSpec, m: int, n: int) -> Matrix:
    z = F.zero
    return tuple(tuple(z for _ in range(n)) for _ in range(m))


def identity(F: FieldSpec, n: int) -> Matrix:
    z, o = F.zero, F.one
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def is_zero_vector(F: FieldSpec, v: Sequence[Scalar]) -> bool:
    return all(F.is_zero(a) for a in v)


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
    out = []
    for row in A:
        acc = F.zero
        for a, b in zip(row, v):
            if not F.is_zero(a) and not F.is_zero(b):
                acc = F.add(acc, F.mul(a, b))
        out.append(acc)
    return tuple(out)


def mat_mul(F: FieldSpec, A: Sequence, B: Sequence) -> Matrix:
    if not A or not B:
        rows = len(A)
        cols = len(B[0]) if B else 0
        return zeros(F, rows, cols)
    if len(A[0]) != len(B):
        raise DimensionMismatch(f"cannot multiply {len(A)}x{len(A[0])} by {len(B)}x{len(B[0])}")
    Bt = transpose(B)
    out = []
    for row in A:
        out.append(tuple(_dot(F, row, col) for col in Bt))
    return tuple(out)


def mm(F: FieldSpec, A: Sequence, B: Sequence, inner: int, bcols: int) -> Matrix:
    """Shape-aware product: A is len(A) x inner, B is inner x bcols.

    Plain tuples cannot carry the column count of a zero-row matrix, so the
    inner dimension and output width are passed explicitly.
    """
    out = []
    for i in range(len(A)):
        row = []
        for j in range(bcols):
            acc = F.zero
            for s in range(inner):
                a = A[i][s]
                if F.is_zero(a):
                    continue
                b = B[s][j]
                if not F.is_zero(b):
                    acc = F.add(acc, F.mul(a, b))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _dot(F: FieldSpec, u: Sequence, v: Sequence) -> Scalar:
    acc = F.zero
    for a, b in zip(u, v):
        if not F.is_zero(a) and not F.is_zero(b):
            acc = F.add(acc, F.mul(a, b))
    return acc


def transpose(A: Sequence) -> Matrix:
    if not A:
        return ()
    return tuple(zip(*A))


def trace(F: FieldSpec, A: Sequence) -> Scalar:
    acc = F.zero
    for i, row in enumerate(A):
        acc = F.add(acc, row[i])
    return acc


def rref(F: FieldSpec, rows: Iterable[Sequence]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form.

    Returns the nonzero rows and the pivot column of each row.  Pivots are
    found scanning columns left to right, so they sit at the lowest possible
    coordinate indices.
    """
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    for r in work:
        if len(r) != ncols:
            raise DimensionMismatch("rows of differing length")
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(work)):
            if not F.is_zero(work[i][col]):
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = F.inv(work[rank][col])
        work[rank] = [F.mul(inv, a) for a in work[rank]]
        for i in range(len(work)):
            if i != rank and not F.is_zero(work[i][col]):
                c = work[i][col]
                work[i] = [F.sub(a, F.mul(c, b)) for a, b in zip(work[i], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return tuple(tuple(r) for r in work[:rank]), tuple(pivots)


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
    w = list(v)
    for row, col in zip(basis, pivots):
        c = w[col]
        if not F.is_zero(c):
            for j in range(len(w)):
                if not F.is_zero(row[j]):
                    w[j] = F.sub(w[j], F.mul(c, row[j]))
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
