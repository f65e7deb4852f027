"""Reference Ext spaces from a Hom solve and a torsion row reduction.

This is the construction that ``homext.ext_space`` replaced: the lattice
image is the off-diagonal blocks of a basis of Hom_kx(X, Y), found as the
kernel of the filtration constraints by ``hom_kx_space``, and each torsion
summand's image is the ``rref`` of the transposed x^n matrix
``module_xpower``.  Reduced echelon forms are unique, so the reductions and
the canonical basis must agree with ``ext_space`` entry for entry.
"""

from typing import NamedTuple

from zdinfty import linalg
from zdinfty.homext import (
    ExtClass,
    _flatten_offdiag,
    _unflatten_offdiag,
    hom_kx_space,
    offdiag_blocks,
)
from zdinfty.objects import CObject, TorsionPart, module_xpower


class Ext(NamedTuple):
    """The reference reductions and the canonical basis they give."""

    basis: tuple
    ff_reduction: tuple
    tor_reduction: tuple


def ext_space(X, Y) -> Ext:
    F = X.field
    p, q, pp, qq = X.p, X.q, Y.p, Y.q
    n_off = qq * p + pp * q

    image_vectors = []
    if X.rank > 0 and Y.rank > 0:
        x_lat = CObject(F, TorsionPart(()), X.lattice)
        y_lat = CObject(F, TorsionPart(()), Y.lattice)
        for A in hom_kx_space(x_lat, y_lat):
            image_vectors.append(_flatten_offdiag(*offdiag_blocks(A, X, Y)))
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
        red = linalg.reduce_against(F, rows, pivots, flat)
        h01, h10 = _unflatten_offdiag(red, p, q, pp, qq)
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
            tor[i] = linalg.reduce_against(F, rows_i, piv_i, vec)
            basis.append(
                ExtClass(X, Y, linalg.zeros(F, qq, p), linalg.zeros(F, pp, q), tuple(tor))
            )
    return Ext(tuple(basis), ff_reduction, tor_reduction)
