"""The matrix product by its definition, the reference for ``linalg.mm``.

Entry (i, j) of A B is the sum over k of A[i][k] B[k][j].  This triple loop
reads the entries by index, with no transpose and no shared helper, and adds
the nonzero products in order of k starting from the field's zero, as
``linalg`` promises: over Q the type of each entry (an ``int`` or a
``Fraction``) then follows from the products alone, so it must match too.
"""


def product(F, A, B, inner, bcols):
    """A (len(A) x inner) times B (inner x bcols), as a tuple of row tuples."""
    rows = []
    for i in range(len(A)):
        row = []
        for j in range(bcols):
            acc = F.zero
            for k in range(inner):
                a, b = A[i][k], B[k][j]
                if a != 0 and b != 0:
                    acc = F.add(acc, F.mul(a, b))
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)
