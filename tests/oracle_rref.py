"""Field-generic Gauss-Jordan elimination, the reference for ``linalg.rref``.

Every step is a field operation of the :class:`FieldSpec`: the pivot row is
scaled by the inverse of its pivot entry and subtracted from every other row.
Over Q each of those steps is a ``Fraction`` operation with its own gcd,
which is what the fraction-free kernel in ``linalg.rref`` avoids.  The
reduced row-echelon form is unique, so both must agree exactly.
"""

from zdinfty.errors import DimensionMismatch


def rref(F, rows):
    """Nonzero rows of the reduced row-echelon form and their pivot columns."""
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    for r in work:
        if len(r) != ncols:
            raise DimensionMismatch("rows of differing length")
    pivots = []
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
