"""Reference Ext spaces from a Hom solve and a torsion row reduction.

This is the construction that ``homext.ext_space`` replaced: the lattice
image is the off-diagonal blocks of a basis of Hom_kx(X, Y), found as the
kernel of the filtration constraints on all rank x rank unknowns by
``oracle_slots.hom_kx_space`` (not the library's, whose row builder the
Ext image shares), and each torsion
summand's image is the ``rref`` of the transposed x^n matrix
``module_xpower``.  Reduced echelon forms are unique, so the reductions and
the canonical basis must agree with ``ext_space`` entry for entry.  The
off-diagonal layout is written out entry by entry, here and in
``oracle_slots.offdiag_blocks``, apart from the library's, so that a fault
in it cannot sit on both sides of a comparison.
"""

from typing import NamedTuple

from zdinfty import linalg
from zdinfty.homext import ExtClass
from zdinfty.objects import CObject, TorsionPart, module_xpower

from oracle_membership import reduce_against
from oracle_slots import hom_kx_space, offdiag_blocks


class Ext(NamedTuple):
    """The reference reductions and the canonical basis they give."""

    basis: tuple
    ff_reduction: tuple
    tor_reduction: tuple


def offdiag_from_vector(flat, X, Y) -> tuple:
    """(h01, h10) from their entries listed row by row, h01 first."""
    p, q, pp, qq = X.p, X.q, Y.p, Y.q
    h01 = tuple(tuple(flat[i * p + k] for k in range(p)) for i in range(qq))
    off = qq * p
    h10 = tuple(tuple(flat[off + i * q + k] for k in range(q)) for i in range(pp))
    return h01, h10


def ext_space(X, Y) -> Ext:
    F = X.field
    p, q, pp, qq = X.p, X.q, Y.p, Y.q
    n_off = qq * p + pp * q

    image_vectors = []
    if X.rank > 0 and Y.rank > 0:
        x_lat = CObject(F, TorsionPart(()), X.lattice)
        y_lat = CObject(F, TorsionPart(()), Y.lattice)
        for A in hom_kx_space(x_lat, y_lat):
            blocks = offdiag_blocks(A, X, Y)
            image_vectors.append(tuple(c for block in blocks for row in block for c in row))
    ff_reduction = linalg.rref(F, image_vectors) if image_vectors else ((), ())

    tor_reduction = tuple(
        linalg.rref(F, linalg.transpose(module_xpower(Y, -a, n - a)))
        for n, a in X.torsion.summands
    )

    def zero_tor():
        return [
            tuple(F.zero for _ in range(Y.module_dim_at(n - a)))
            for n, a in X.torsion.summands
        ]

    basis = []
    rows, pivots = ff_reduction
    for fcoord in range(n_off):
        if fcoord in pivots:
            continue
        flat = [F.zero] * n_off
        flat[fcoord] = F.one
        red = reduce_against(F, rows, pivots, flat)
        h01, h10 = offdiag_from_vector(red, X, Y)
        basis.append(ExtClass(X, Y, h01, h10, tuple(zero_tor())))
    for i, (n_i, a_i) in enumerate(X.torsion.summands):
        dim_i = Y.module_dim_at(n_i - a_i)
        rows_i, piv_i = tor_reduction[i]
        for fcoord in range(dim_i):
            if fcoord in piv_i:
                continue
            vec = [F.zero] * dim_i
            vec[fcoord] = F.one
            tor = zero_tor()
            tor[i] = reduce_against(F, rows_i, piv_i, vec)
            basis.append(
                ExtClass(X, Y, linalg.zeros(F, qq, p), linalg.zeros(F, pp, q), tuple(tor))
            )
    return Ext(tuple(basis), ff_reduction, tor_reduction)
