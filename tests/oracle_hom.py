"""Torsion-to-torsion Hom by a dense solve: the reference for the closed form.

Unknowns are the entries of one matrix per degree where both torsion parts
are alive (target slots x source slots); the rows force x . M_d = M_{d+1} . x
at every degree of the source.  The kernel, from ``linalg.nullspace``, is a
basis of the degree-zero k[x]-module maps between the torsion parts.  This
is the solve ``homext.hom_space`` ran before it read the maps off the
summands' bars; it is kept here only to check that closed form.
"""

from zdinfty import linalg

from oracle_slots import torsion_xpower


def shared_degrees(X, Y) -> tuple:
    """Degrees where the torsion of X and of Y are both nonzero."""
    if X.torsion.min_degree() is None or Y.torsion.min_degree() is None:
        return ()
    return tuple(
        d
        for d in range(X.torsion.min_degree(), X.torsion.max_degree() + 1)
        if X.torsion.dim_at(d) > 0 and Y.torsion.dim_at(d) > 0
    )


def torsion_hom_basis(X, Y) -> tuple:
    """Basis of the torsion maps X -> Y, each as {degree: matrix}."""
    F = X.field
    S, T = X.torsion, Y.torsion
    degrees = shared_degrees(X, Y)
    if not degrees:
        return ()
    offsets, total = {}, 0
    for d in degrees:
        offsets[d] = total
        total += T.dim_at(d) * S.dim_at(d)

    def var(d, i, j):
        return offsets[d] + i * S.dim_at(d) + j

    rows = []
    for d in range(S.min_degree(), S.max_degree() + 1):
        na, nb1 = S.dim_at(d), T.dim_at(d + 1)
        if na == 0 or nb1 == 0:
            continue
        xa, xb = torsion_xpower(S, F, d, d + 1), torsion_xpower(T, F, d, d + 1)
        for i in range(nb1):
            for j in range(na):
                row = [F.zero] * total
                if d in offsets:
                    for s in range(T.dim_at(d)):
                        if not F.is_zero(xb[i][s]):
                            row[var(d, s, j)] = xb[i][s]
                if d + 1 in offsets:
                    for t in range(S.dim_at(d + 1)):
                        if not F.is_zero(xa[t][j]):
                            row[var(d + 1, i, t)] = F.sub(row[var(d + 1, i, t)], xa[t][j])
                if any(not F.is_zero(c) for c in row):
                    rows.append(tuple(row))
    kernel = linalg.nullspace(F, rows) if rows else linalg.identity(F, total)
    return tuple(
        {
            d: tuple(
                tuple(vec[var(d, i, j)] for j in range(S.dim_at(d)))
                for i in range(T.dim_at(d))
            )
            for d in degrees
        }
        for vec in kernel
    )
