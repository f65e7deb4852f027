"""The Hom and Ext counts as two row loops, and the restricted Hom on retyped copies.

This is the counting path from before one outer-product builder
(``homext._outer_echelon``) built both systems: ``hom_count`` and
``ext_count`` are the two copied loops, the Ext loop reading the exact rows
of ``generator_inverse`` where the library reads the dual rows ``_dual`` up
to scale, and ``hom_kx_space`` runs the Hom loop on copies of both objects
with every coordinate typed 0.  They are kept here only as the
differential for the builder: the echelons must agree row for row.
"""

from zdinfty import linalg
from zdinfty.homext import _constant_matrix_solutions, _ext_torsion, _hom_torsion
from zdinfty.lattice import GradedLattice
from zdinfty.objects import CObject


def hom_count(X, Y) -> tuple:
    """(the eliminated Hom constraints, dim Hom(X, Y)): per generator
    (e, dir) of X and annihilator u of S_e(Y), the row u (x) dir on the two
    diagonal blocks."""
    F = X.field
    XL, YL = X.lattice, Y.lattice
    p, q, pp, qq = XL.p, XL.q, YL.p, YL.q
    dim = _hom_torsion(X, Y)
    if not (p + q and pp + qq):
        return linalg.NO_ROWS, dim
    mul, zero = F.mul, F.zero
    rows = []
    for e, dir in XL.generators():
        d0, d1 = dir[:p], dir[p:]
        for u in YL.annihilator_at(e):
            row = [mul(a, b) if a and b else zero for a in u[:pp] for b in d0]
            row += [mul(a, b) if a and b else zero for a in u[pp:] for b in d1]
            if any(row):
                rows.append(row)
    echelon = linalg._echelon(F, rows) if rows else linalg.NO_ROWS
    return echelon, dim + pp * p + qq * q - len(echelon)


def ext_count(X, Y) -> tuple:
    """(the eliminated Ext lattice image, dim Ext(X, Y)): per generator row
    g*_j of X's ``generator_inverse`` and echelon row s of S_(e_j)(Y), the
    off-diagonal entries of s (x) g*_j, Y's types swapped."""
    F = X.field
    XL, YL = X.lattice, Y.lattice
    p, q, pp, qq = XL.p, XL.q, YL.p, YL.q
    n_off = qq * p + pp * q
    dim = _ext_torsion(X, Y)
    if not n_off:
        return linalg.NO_ROWS, dim
    mul, zero = F.mul, F.zero
    rows = []
    for (e, _), g in zip(XL.generators(), XL.generator_inverse):
        g0, g1 = g[:p], g[p:]
        for s in YL.subspace_at(e):
            vec = [mul(a, b) if a and b else zero for a in s[pp:] for b in g0]
            vec += [mul(a, b) if a and b else zero for a in s[:pp] for b in g1]
            if any(vec):
                rows.append(vec)
    echelon = linalg._echelon(F, rows) if rows else linalg.NO_ROWS
    return echelon, dim + n_off - len(echelon)


def hom_kx_space(X, Y) -> tuple:
    """The a00 blocks of the category maps between copies of the two
    torsion-free objects with every coordinate typed 0."""
    F = X.field
    Xu, Yu = (
        CObject(F, Z.torsion, GradedLattice(F, Z.rank, 0, Z.lattice.steps)) for Z in (X, Y)
    )
    return tuple(a00 for a00, _ in _constant_matrix_solutions(Xu, Yu, hom_count(Xu, Yu)[0]))
