"""References for ``homext.hom_space``.

``torsion_hom_basis`` is torsion-to-torsion Hom by a dense solve: unknowns
are the entries of one matrix per degree where both torsion parts are alive
(target slots x source slots); the rows force x . M_d = M_{d+1} . x at every
degree of the source.  The kernel, from ``linalg.nullspace``, is a basis of
the degree-zero k[x]-module maps between the torsion parts.  This is the
solve ``hom_space`` ran before it read the maps off the summands' bars; it
is kept here only to check that closed form.

``eager_hom_basis`` builds every basis map up front, as ``hom_space`` did
before it stored the maps as counts and positions and built them only when
``HomSpace.basis`` is read; it is kept here only to check that order.
"""

from zdinfty import linalg
from zdinfty.homext import (
    Morphism,
    _constant_matrix_solutions,
    _hom_count,
    morphism_from_parts,
    torsion_compatible,
)

from oracle_slots import max_degree, min_degree, torsion_xpower


def shared_degrees(X, Y) -> tuple:
    """Degrees where the torsion of X and of Y are both nonzero."""
    if min_degree(X.torsion) is None or min_degree(Y.torsion) is None:
        return ()
    return tuple(
        d
        for d in range(min_degree(X.torsion), max_degree(X.torsion) + 1)
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
    for d in range(min_degree(S), max_degree(S) + 1):
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


def eager_hom_basis(X, Y) -> tuple:
    """The category Hom basis, every map built at once: the lattice maps,
    one unit map per compatible torsion pair, then one per target torsion
    slot at each source generator's jump."""
    F = X.field
    basis = []
    # lattice part
    for a00, a11 in _constant_matrix_solutions(X, Y, _hom_count(X, Y)[0]):
        basis.append(morphism_from_parts(X, Y, a00, a11))
    S, T = X.torsion, Y.torsion
    if not T.summands:
        return tuple(basis)
    # every other basis map lands in the target torsion and is zero on the
    # lattice; its zero blocks, and the zero ft of the torsion maps, are
    # built once and shared
    a00, a11 = linalg.zeros(F, Y.p, X.p), linalg.zeros(F, Y.q, X.q)
    ft = tuple((F.zero,) * T.dim_at(jump) for jump, _ in X.lattice.generators())
    # torsion to torsion: one scalar per compatible pair of summands
    for k in range(len(T.summands)):
        for i in range(len(S.summands)):
            if torsion_compatible(S, i, T, k):
                tt = linalg.unit_matrix(F, len(T.summands), len(S.summands), [(k, i)])
                basis.append(Morphism(X, Y, a00, a11, tt, ft))
    # lattice generators into target torsion
    tt = linalg.zeros(F, len(T.summands), len(S.summands))
    for j, zero in enumerate(ft):
        for s in range(len(zero)):
            unit = zero[:s] + (F.one,) + zero[s + 1:]
            basis.append(Morphism(X, Y, a00, a11, tt, ft[:j] + (unit,) + ft[j + 1:]))
    return tuple(basis)
