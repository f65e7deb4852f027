"""Dense exact linear algebra over a :class:`~zdinfty.fields.FieldSpec`.

Vectors are tuples of scalars, matrices are tuples of row tuples.  Over Q
every entry this module returns from an elimination (``rref``, ``solve``,
``nullspace``, ``inverse``) is an exact rational: an ``int`` when it is
integral, a :class:`~fractions.Fraction` otherwise, never a float;
scalars compare by value, so the type never changes a result.  Subspaces
are kept as reduced-echelon bases (each basis vector a row, pivots chosen at
the lowest coordinate index), which makes every canonical form bit-identical
across runs.  Every elimination runs on one kernel, :class:`Echelon`: a
growing subspace kept as mutually reduced int rows, which ``rref``, the
lattice canonical forms and the Krull-Schmidt sweep all feed.  Beside it
every product runs on one multiply-accumulate loop, :func:`mat_vec`, which
reads only the entries of each row at the vector's nonzeros: ``mm`` is
``mat_vec`` of each row, so it skips B's rows at A's zeros.  Both elder-rule
sweeps combine their dying bars with it, a class's torsion parts are summed
and an Ext class reduced by one ``mm`` each, and the one exception in
``src`` is the row builders of the Hom and Ext counts, which multiply
scalars into their outer-product rows.  ``vec_add``, ``mat_add`` and
``trace`` add and do not multiply.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch
from .fields import QQ, FieldSpec, Scalar

Vector = tuple
Matrix = tuple


def zeros(F: FieldSpec, m: int, n: int) -> Matrix:
    """The m x n zero matrix; rows are immutable, so all m share one."""
    return ((F.zero,) * n,) * m


def identity(F: FieldSpec, n: int) -> Matrix:
    return unit_matrix(F, n, n, zip(range(n), range(n)))


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


def vec_add(F: FieldSpec, u: Sequence, v: Sequence) -> Vector:
    return tuple(F.add(a, b) for a, b in zip(u, v))


def mat_add(F: FieldSpec, A: Sequence, B: Sequence) -> Matrix:
    return tuple(vec_add(F, ra, rb) for ra, rb in zip(A, B))


def mat_vec(F: FieldSpec, A: Sequence, v: Sequence) -> Vector:
    """A times v: per row of A, the sum of its nonzero products with v in
    column order.  This is the one multiply-accumulate loop (``mm`` runs on
    it).  It lists v's nonzero (index, value) pairs once and reads only
    those entries of each row, so a row costs nnz(v) reads, not len(v)
    (Duff, Erisman and Reid, *Direct Methods for Sparse Matrices*, ch. 2).
    The products are added from the field's zero in column order, so over
    Q each entry's type follows from the products alone; over F_p the int
    products are summed and the sum reduced once mod p."""
    if A and len(A[0]) != len(v):
        raise DimensionMismatch(f"matrix has {len(A[0])} columns, vector length {len(v)}")
    p, nonzero = F.p, [(j, b) for j, b in enumerate(v) if b]
    out = []
    for row in A:
        acc = F.zero
        for j, b in nonzero:
            if a := row[j]:
                acc += a * b
        out.append(acc % p if p else acc)
    return tuple(out)


def mm(F: FieldSpec, A: Sequence, B: Sequence, inner: int, bcols: int) -> Matrix:
    """Matrix product: A is len(A) x inner, B is inner x bcols.

    Plain tuples cannot carry the column count of a zero-row matrix, so the
    inner dimension and output width are passed explicitly.  Each row of
    the product is :func:`mat_vec` of B's columns over that row of A, so
    both run one loop, which adds the nonzero products a_ik b_kj in order
    of k and reads only the k where a_ik is nonzero: a row of A with s
    nonzeros costs s x bcols reads.  With no inner dimension B has no rows
    to transpose, and its bcols columns are empty.
    """
    if len(B) != inner or (A and len(A[0]) != inner):
        raise DimensionMismatch(f"cannot multiply {len(A)}x{inner} by {len(B)}x{bcols}")
    cols = transpose(B) if inner else ((),) * bcols
    return tuple(mat_vec(F, cols, row) for row in A)


def transpose(A: Sequence) -> Matrix:
    return tuple(zip(*A))


def trace(F: FieldSpec, A: Sequence) -> Scalar:
    acc = F.zero
    for i, row in enumerate(A):
        acc = F.add(acc, row[i])
    return acc


def _integer_row(row: Sequence) -> Sequence:
    """The primitive integer multiple of a row of rationals.  A row of ints,
    the common case, skips the denominators and comes back as it is unless
    it has a content to divide out (``Echelon`` never writes into a row).
    ``gcd`` takes only ints, so its ``TypeError`` is what tells a row with
    a Fraction apart."""
    try:
        g = gcd(*row)
    except TypeError:
        den = lcm(*[a.denominator for a in row])
        row = [a.numerator * (den // a.denominator) for a in row]
        g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def _cancel(p: int | None, w: list, row: list, col: int) -> list:
    """``w`` with its entry at ``col`` cancelled against ``row``'s pivot there.

    Over F_p the pivot entry is 1 and the step is a subtraction mod p.  Over
    Q both rows are primitive int rows: ``w`` is cross-multiplied with the
    pivot entry and its content divided out, so it stays primitive.
    """
    c = w[col]
    if p:
        return [(a - c * b) % p for a, b in zip(w, row)]
    d = row[col]
    w = [d * a - c * b for a, b in zip(w, row)]
    g = gcd(*w)
    return [a // g for a in w] if g > 1 else w


class Echelon:
    """A growing subspace, kept as a reduced basis of int rows.

    This is the one elimination kernel: ``rref``, ``nullspace``, lattice
    canonical forms and the Krull-Schmidt sweep all run on it.  ``kernel``
    reads a right-kernel basis off it.  A space keeps the echelon its count
    built, to reduce or take the kernel of only when read, and nothing adds
    to it after.  Over Q each row is a primitive integer multiple of its
    vector (``_integer_row``), and only ``reduced`` turns rows back into
    rationals; over F_p each row is reduced mod p with its pivot entry 1.
    Every stored row is zero at every other row's pivot, so sorted by pivot
    the rows are the reduced echelon form up to scaling, and the reduced
    echelon form is unique: both fields give the field-generic result.
    """

    def __init__(self, F: FieldSpec):
        self.p = F.p
        self.rows: list = []  # (pivot, row), in insertion order

    def __len__(self) -> int:
        return len(self.rows)

    def add(self, v: Sequence) -> bool:
        """Add ``v``; returns whether it was outside the span.

        ``v`` is cancelled at each stored pivot.  A new vector's pivot is its
        first nonzero entry, and it is cleared from the stored rows.
        """
        p, rows = self.p, self.rows
        w = list(v) if p else _integer_row(v)
        for piv, row in rows:
            if w[piv]:
                w = _cancel(p, w, row, piv)
        for piv, c in enumerate(w):
            if c:
                break
        else:
            return False
        if p and c != 1:
            inv = pow(c, p - 2, p)
            w = [a * inv % p for a in w]
        for k, (col, row) in enumerate(rows):
            if row[piv]:
                rows[k] = (col, _cancel(p, row, w, piv))
        rows.append((piv, w))
        return True

    def reduced(self) -> tuple[Matrix, tuple[int, ...]]:
        """The reduced echelon basis rows, sorted by pivot, and their pivots.

        Over Q each row is divided by its pivot entry (``_rational_row``)."""
        if not self.rows:
            return (), ()
        pairs = sorted(self.rows)  # the pivots are distinct
        cols, red = zip(*pairs)
        if not self.p:
            red = [_rational_row(row, row[col]) for col, row in pairs]
        return tuple(map(tuple, red)), cols

    def kernel(self, n: int) -> tuple[Matrix, tuple[int, ...]]:
        """A basis of the right kernel of the rows fed, over ``n`` columns,
        and the free column of each vector, a tuple: one vector per free
        column, in column order, a one there and the negated reduced entries
        at the pivots.  Both ``()`` at full column rank, where no reduced row
        is built."""
        if len(self.rows) == n:
            return (), ()
        p = self.p
        red, pivots = self.reduced()
        pivset = set(pivots)
        free = [f for f in range(n) if f not in pivset]
        basis = []
        for f in free:
            v = [0] * n
            v[f] = 1
            for row, col in zip(red, pivots):
                if row[f]:
                    v[col] = -row[f] % p if p else -row[f]
            basis.append(tuple(v))
        return tuple(basis), tuple(free)


# The one echelon of no rows.  Its ``reduced`` and ``kernel`` read no field,
# so it serves every field, and a space with nothing to eliminate builds no
# echelon.  Its rows are the empty tuple, so an ``add`` on it raises.
NO_ROWS = Echelon(QQ)
NO_ROWS.rows = ()


def rref(F: FieldSpec, rows: Iterable[Sequence]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form.

    Returns the nonzero rows and the pivot column of each row.  The pivot of
    each row is the lowest coordinate index it can take.  The rows are fed
    to one :class:`Echelon`, so over Q the elimination is fraction-free and
    only the returned rows are rationals (an ``int`` where the quotient by
    the pivot entry is integral, a Fraction elsewhere); over F_p it runs on
    ints reduced modulo p.
    """
    return _echelon(F, rows).reduced()


def _echelon(F: FieldSpec, rows: Iterable[Sequence]) -> Echelon:
    """One :class:`Echelon` fed the rows, which must share one length."""
    rows = list(rows)
    ech = Echelon(F)
    for r in rows:
        if len(r) != len(rows[0]):
            raise DimensionMismatch("rows of differing length")
        ech.add(r)
    return ech


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


def rank(F: FieldSpec, A: Sequence) -> int:
    """The number of pivots of one :class:`Echelon`: no reduced rows, and
    over Q no rationals, are built."""
    return len(_echelon(F, A))


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
    """Echelonized basis of the right kernel of ``A`` (rows are kernel vectors),
    one per free column of its echelon form, in column order; ``()`` at full
    column rank, where no reduced row is built (``Echelon.kernel``).

    ``ncols`` pins the column count when ``A`` has no rows.
    """
    return _echelon(F, A).kernel(len(A[0]) if A else (ncols or 0))[0]


def elder_kills(F: FieldSpec, columns: Sequence) -> tuple[Matrix, tuple[int, ...]]:
    """The elder rule's deaths (Zomorodian and Carlsson, "Computing Persistent
    Homology", 2005) among live bars, one column per bar, elder first: the
    kill rows and the dying bars, both elder first.  A bar dies when its
    column lies in its elders' span, so the dying bars are the free columns
    of one elimination of the columns, and the kill rows are its kernel
    (``Echelon.kernel``): each is one at its bar, zero at every other dying
    bar and nonzero elsewhere only at surviving elders before it, so it is
    the combination of the bar and its surviving elders that the columns
    send to zero.  The window sweep (``window.reconstruct_parts``) calls it
    once per listed degree where some live bars die and others survive, on
    the x-images it reads once per listed degree; the Krull-Schmidt sweep
    calls it once per jump where some column is nonzero.

    Where some bars die, the window sweep eliminates the images twice, in
    two spaces: its own echelon of the images, rows in the image space,
    decides the deaths and then the births, since a kernel vector is born
    outside the survivors' span; the kill rows are a kernel in the bar space,
    over the transposed columns.  Neither elimination gives the other's
    result."""
    return _echelon(F, transpose(columns)).kernel(len(columns))


def inverse(F: FieldSpec, A: Sequence) -> Matrix | None:
    n = len(A)
    if any(len(r) != n for r in A):
        raise DimensionMismatch("inverse of a non-square matrix")
    aug = [list(A[i]) + [F.one if i == j else F.zero for j in range(n)] for i in range(n)]
    red, pivots = rref(F, aug)
    if len(red) < n or list(pivots) != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in red)
