"""References for the Serre pairing: the Gram matrix entry by entry, and the
Hom, Ext and duality check with every piece of bookkeeping done on every pair.

``gram_by_composition`` forms the Yoneda composite of a basis map and a basis
class for each entry, reduces it to its canonical representative in
Ext(F, VF) (``yoneda_compose`` rebuilds that space for every entry) and
applies the trace ``eta``.  This is how ``homext.serre_gram`` filled the
matrix before it read each entry off the Hom basis maps at the free positions
of the Ext space; it is kept here only to check that selection.

``hom_space``, ``ext_space``, ``gram`` and ``serre_check`` are the duality
check as it ran before it skipped what a pair does not have and counted what
it does not read: the torsion pairs and the per-generator torsion widths are
listed for every pair, the hit slots of every source torsion summand are
listed, each dimension is the length of those lists, the Gram's free cells
come from the free positions of every block, and ``nullspace`` lists the
free columns first and builds the reduced rows even at full rank.  ``Hom``
and ``Ext`` hold every list eagerly, under the names ``HomSpace`` and
``ExtSpace`` give them, so a result compares with the library's
attributes field for field; ``serre_check`` builds the library's own
``SerreReport``.
"""

from dataclasses import dataclass

from zdinfty import linalg
from zdinfty.fields import check_same_field
from zdinfty.homext import (
    SerreReport,
    eta,
    ext_space as library_ext_space,
    hom_space as library_hom_space,
    torsion_compatible,
    yoneda_compose,
)
from zdinfty.objects import serre_twist


def gram_by_composition(Fobj, G, flipped=False) -> tuple:
    """Gram matrix of Hom(F, G) x Ext(G, VF), or Ext(F, G) x Hom(G, VF)."""
    VF = serre_twist(Fobj)
    if not flipped:
        lefts = library_hom_space(Fobj, G).basis
        rights = library_ext_space(G, VF).basis
    else:
        lefts = library_ext_space(Fobj, G).basis
        rights = library_hom_space(G, VF).basis
    return tuple(
        tuple(eta(Fobj, yoneda_compose(g, f)) for g in rights) for f in lefts
    )


def nullspace(F, A, ncols=None):
    """Right kernel of ``A``: one row per free column of its rref."""
    m = len(A)
    n = len(A[0]) if m else (ncols or 0)
    if m == 0:
        return linalg.identity(F, n)
    if n == 0:
        return ()
    red, pivots = linalg.rref(F, A)
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


def constant_matrix_solutions(X, Y):
    """The block-diagonal (a00, a11) maps of the filtration of X into Y's."""
    F = X.field
    if X.rank == 0 or Y.rank == 0:
        return ()
    p, q, pp, qq = X.p, X.q, Y.p, Y.q
    mul, zero = F.mul, F.zero
    rows = []
    for e, dir in X.lattice.generators():
        for u in Y.lattice.annihilator_at(e):
            row = [mul(a, b) if a and b else zero for a in u[:pp] for b in dir[:p]]
            row += [mul(a, b) if a and b else zero for a in u[pp:] for b in dir[p:]]
            if any(row):
                rows.append(tuple(row))
    n00 = pp * p
    kernel = nullspace(F, rows) if rows else linalg.identity(F, n00 + qq * q)
    return tuple(
        (
            tuple(vec[i * p:(i + 1) * p] for i in range(pp)),
            tuple(vec[n00 + i * q:n00 + (i + 1) * q] for i in range(qq)),
        )
        for vec in kernel
    )


@dataclass(frozen=True)
class Hom:
    src: object
    dst: object
    lattice_maps: tuple
    torsion_pairs: tuple
    ft_widths: tuple
    dim: int


@dataclass(frozen=True)
class Ext:
    src: object
    dst: object
    ff_reduction: tuple
    tor_reduction: tuple
    widths: tuple
    dim: int

    def free(self) -> tuple:
        """Per block, the positions off its pivots or hit slots."""
        return tuple(
            tuple(k for k in range(width) if k not in pivots)
            for width, pivots in zip(self.widths, (self.ff_reduction[1],) + self.tor_reduction)
        )


def hom_space(X, Y):
    check_same_field(X.field, Y.field)
    S, T = X.torsion, Y.torsion
    pairs = tuple(
        (k, i) for k in range(len(T.summands)) for i in range(len(S.summands))
        if torsion_compatible(S, i, T, k)
    )
    widths = tuple(T.dim_at(jump) for jump, _ in X.lattice.generators())
    maps = constant_matrix_solutions(X, Y)
    return Hom(X, Y, maps, pairs, widths, len(maps) + len(pairs) + sum(widths))


def ext_space(X, Y):
    check_same_field(X.field, Y.field)
    F = X.field
    p, q, pp, qq = X.p, X.q, Y.p, Y.q
    n_off = qq * p + pp * q

    image_vectors = []
    if n_off:
        mul, zero = F.mul, F.zero
        for (e, _), g in zip(X.lattice.generators(), X.lattice.generator_inverse):
            g0, g1 = g[:p], g[p:]
            for s in Y.lattice.subspace_at(e):
                vec = [mul(a, b) if a and b else zero for a in s[pp:] for b in g0]
                vec += [mul(a, b) if a and b else zero for a in s[:pp] for b in g1]
                if any(vec):
                    image_vectors.append(vec)
    ff_reduction = linalg.rref(F, image_vectors) if image_vectors else ((), ())

    tor_reduction, widths = [], [n_off]
    dim = n_off - len(ff_reduction[1])
    for n, a in X.torsion.summands:
        hit = tuple(k for k, _ in Y.xpower_slots(-a, n - a))
        width = Y.module_dim_at(n - a)
        tor_reduction.append(hit)
        widths.append(width)
        dim += width - len(hit)

    return Ext(X, Y, ff_reduction, tuple(tor_reduction), tuple(widths), dim)


def gram(hom, ext, flipped=False):
    """The trace pairing's Gram matrix, its cells read from ``Ext.free``."""
    X, Y = ext.src, ext.dst
    n01 = Y.q * X.p
    cells = [
        (0, *divmod(k, X.p)) if k < n01 else (1, *divmod(k - n01, X.q))
        for k in ext.free()[0]
    ]
    rows = tuple(
        tuple(blocks[b][k][i] for b, i, k in cells)
        for blocks in (m[::-1] if flipped else m for m in hom.lattice_maps)
    )
    if flipped:
        return tuple(zip(*rows)) if rows else ((),) * len(cells)
    return rows


def serre_check(X, Y):
    hom = hom_space(X, Y)
    ext = ext_space(Y, serre_twist(X))
    d_hom, d_ext = hom.dim, ext.dim
    gram_rank = None
    gram_ok = None
    if X.is_torsion_free() and Y.is_torsion_free():
        g = gram(hom, ext)
        gram_rank = linalg.rank(X.field, g) if g else 0
        gram_ok = gram_rank == d_hom == d_ext
    return SerreReport(X, Y, d_hom, d_ext, d_hom == d_ext, gram_rank, gram_ok)
