"""Reference short exact sequences: the constructions ``ar`` replaced.

Each middle is built here as it was before the twisted frame: the lattice
builder twists X's generators by hand, and the window builder takes two
contiguous ``model_of`` window models (defined here), assembles its x-maps
from them degree by degree and charts the top degree column by column with
a second ``offdiag_full``.  Each summand of a direct sum is placed by its
r x rank unit-matrix embedding, as ``objects.sum_layout`` gave it before it
kept coordinates alone, and ``twisted_frame`` is the frame ``ar`` built
from those matrices.  A summand's inclusion and projection read their
a00/a11 blocks by index, ``morphism_from_degreewise`` reads the blocks and
checks type-diagonality entry by entry, a left inverse is one solve per
column, and the twists swap coordinates with index comprehensions.
``tests/test_ses_frame.py`` and ``tests/test_sum_places.py`` check that
``ar`` and ``homext`` give the same sequences, classes, frames and maps.
``split_sequence`` is the library's split extension, the sequence of
``zero_class``; only tests read either, so both live here.  The class's
full matrix (``offdiag_full``) and the off-diagonal blocks
(``oracle_slots.offdiag_blocks``) are written out entry by entry, apart
from the library's block layout.
"""

from zdinfty import linalg, window
from zdinfty.ar import ShortExactSeq, extension_object as library_extension
from zdinfty.errors import ShapeMismatch, ZdinftyError
from zdinfty.homext import (
    ExtClass,
    Morphism,
    _ft_image,
    ext_space,
    morphism_degreewise,
    morphism_from_parts,
    torsion_compatible,
)
from zdinfty.lattice import adapted_coords, canonicalize
from zdinfty.objects import (
    CObject,
    TorsionPart,
    module_xpower,
    serre_twist,
)

from oracle_decomp import _embedding, direct_sum_many
from oracle_slots import max_degree, max_jump, offdiag_blocks, window_bounds


def offdiag_full(c: ExtClass) -> tuple:
    """The class blocks as a full Y.rank x X.rank matrix, entry by entry:
    A[Y.p + i][k] = h01[i][k], A[i][X.p + k] = h10[i][k], zero elsewhere."""
    X, Y = c.src, c.dst
    A = [[X.field.zero] * X.rank for _ in range(Y.rank)]
    for i, row in enumerate(c.h01):
        for k, entry in enumerate(row):
            A[Y.p + i][k] = entry
    for i, row in enumerate(c.h10):
        for k, entry in enumerate(row):
            A[i][X.p + k] = entry
    return tuple(map(tuple, A))


def sum_embeddings(Y: CObject, X: CObject):
    """(Z, (embY, tY), (embX, tX)): the sum Y + X, its lattice canonicalized
    from the embedded generators (``oracle_decomp.direct_sum_many``), and
    each summand's place as the r x rank unit matrix with a one at
    (place[k], k), with its torsion index map."""
    Z, ((pY, tY), (pX, tX)) = direct_sum_many([Y, X])
    F = X.field
    return Z, (_embedding(F, Z.rank, pY, Y.rank), tY), (_embedding(F, Z.rank, pX, X.rank), tX)


def twisted_frame(c: ExtClass):
    """(p, q, torsion, (embY, tY), (embX, tX), gens): the frame of the class
    built from embedding matrices, where ``ar._frame_extension`` places
    ``ar._frame_generators`` on ``objects.sum_layout``: Y's generators
    (e, embY dir), then X's (e, (embX + embY A) dir), A = ``offdiag_full``."""
    F = c.src.field
    X, Y = c.src, c.dst
    Z, (embY, tY), (embX, tX) = sum_embeddings(Y, X)
    twist = linalg.mat_add(F, embX, linalg.mm(F, embY, offdiag_full(c), Y.rank, X.rank))
    gens = [(e, linalg.mat_vec(F, embY, dir)) for e, dir in Y.lattice.generators()]
    gens += [(e, linalg.mat_vec(F, twist, dir)) for e, dir in X.lattice.generators()]
    return Z.p, Z.q, Z.torsion, (embY, tY), (embX, tX), gens


def zero_class(X: CObject, Y: CObject) -> ExtClass:
    """The zero class of Ext^1(X, Y): every coordinate zero."""
    F = X.field
    tor = tuple((F.zero,) * Y.module_dim_at(n - a) for n, a in X.torsion.summands)
    return ExtClass(X, Y, linalg.zeros(F, Y.q, X.p), linalg.zeros(F, Y.p, X.q), tor)


def split_sequence(Y: CObject, X: CObject) -> ShortExactSeq:
    """The split extension of X by Y as the library builds it: the sequence
    of the zero class.  Only tests read it, so it lives here."""
    return library_extension(zero_class(X, Y))


def model_of(X: CObject, lo: int, hi: int):
    """Window model of X on every degree of [lo, hi], with its localization
    chart.

    The degree-d basis is the slot layout of ``CObject``.  Requires hi beyond
    all jumps and torsion support.
    """
    F = X.field
    if X.rank > 0 and hi < max_jump(X.lattice):
        raise ZdinftyError("window top below the lattice jumps")
    td = max_degree(X.torsion)
    if td is not None and hi <= td:
        raise ZdinftyError("window top does not kill the torsion")
    dims = tuple(X.module_dim_at(d) for d in range(lo, hi + 1))
    xmaps = tuple(module_xpower(X, d, d + 1) for d in range(lo, hi))
    wm = window.WindowModule(F, tuple(range(lo, hi + 1)), dims, xmaps)
    chart_cols = [dir for _, dir in X.lattice.generators()]
    chart = linalg.transpose(chart_cols) if chart_cols else ()
    return wm, chart


def sum_inclusion(big: CObject, factor: CObject, embed, tmap) -> Morphism:
    """Inclusion of one direct summand, from the embedding data."""
    F = big.field
    a00 = tuple(tuple(embed[i][k] for k in range(factor.p)) for i in range(big.p))
    a11 = tuple(
        tuple(embed[big.p + i][factor.p + k] for k in range(factor.q))
        for i in range(big.q)
    )
    tt = linalg.unit_matrix(
        F, len(big.torsion.summands), len(factor.torsion.summands),
        ((k, i) for i, k in tmap.items()),
    )
    return morphism_from_parts(factor, big, a00, a11, tt)


def sum_projection(big: CObject, factor: CObject, embed, tmap) -> Morphism:
    """Projection of a direct sum onto one summand."""
    F = big.field
    a_full = linalg.transpose(embed)
    a00 = tuple(tuple(a_full[i][k] for k in range(big.p)) for i in range(factor.p))
    a11 = tuple(
        tuple(a_full[factor.p + i][big.p + k] for k in range(big.q))
        for i in range(factor.q)
    )
    tt = linalg.unit_matrix(
        F, len(factor.torsion.summands), len(big.torsion.summands), tmap.items()
    )
    return morphism_from_parts(big, factor, a00, a11, tt)


def serre_twist_morphism(f: Morphism) -> Morphism:
    """The twist applied to a morphism: swap the blocks, shift the rest.

    The shift moves every torsion summand alike and keeps their order, so the
    torsion scalars pass through unchanged.
    """
    X, Y = f.src, f.dst
    VX, VY = serre_twist(X), serre_twist(Y)
    p = X.p
    ft = []
    for ep, dirp in VX.lattice.generators():
        # undo the coordinate swap and the shift to land back in X
        dir = tuple(dirp[VX.p + i] if i < p else dirp[i - p] for i in range(X.rank))
        gamma = adapted_coords(X.lattice, dir, ep - 1)
        if gamma is None:
            raise ZdinftyError("twisted generator escapes the original lattice")
        ft.append(_ft_image(f, gamma, ep - 1))
    return morphism_from_parts(VX, VY, f.a11, f.a00, f.tt, tuple(ft))


def serre_twist_class(c: ExtClass) -> "ExtClass":
    """The twist applied to an extension class.

    Off-diagonal blocks swap; the lattice part of each torsion representative
    is transported through the coordinate swap and re-expressed in the
    twisted adapted basis.  The shift keeps the order of the torsion
    summands and moves each one's life by one degree, so the torsion
    coordinates pass through unchanged.
    """
    X, Y = c.src, c.dst
    VX, VY = serre_twist(X), serre_twist(Y)
    tor = []
    for i, (n, a) in enumerate(X.torsion.summands):
        h = n - a
        amb = Y.lattice_vector(h, c.tor[i])
        swapped = tuple(
            amb[Y.p + t] if t < Y.q else amb[t - Y.q] for t in range(Y.rank)
        )
        gamma = adapted_coords(VY.lattice, swapped, h + 1)
        if gamma is None:
            raise ZdinftyError("twisted representative escapes the filtration")
        tor.append(
            tuple(gamma[: VY.lattice.dim_at(h + 1)]) + tuple(c.tor[i][Y.lattice.dim_at(h):])
        )
    return ext_space(VX, VY).reduce(c.h10, c.h01, tuple(tor))


def split_sum(Y: CObject, X: CObject) -> ShortExactSeq:
    """The split extension of X by Y: the direct sum of ``sum_embeddings``
    and the summand maps read off its embedding matrices."""
    Z, (e1, t1), (e2, t2) = sum_embeddings(Y, X)
    inject = sum_inclusion(Z, Y, e1, t1)
    surject = sum_projection(Z, X, e2, t2)
    return ShortExactSeq(Y, Z, X, inject, surject, zero_class(X, Y))


def extension_object(c: ExtClass) -> ShortExactSeq:
    """Short exact sequence 0 -> Y -> E -> X -> 0 realizing the class."""
    X, Y = c.src, c.dst
    if c.is_zero():
        return split_sum(Y, X)
    if X.is_torsion_free() and Y.is_torsion_free():
        return _lattice_extension(c)
    return _general_extension(c)


def _lattice_extension(c: ExtClass) -> ShortExactSeq:
    F = c.src.field
    X, Y = c.src, c.dst
    Z, (embY, _), (embX, _) = sum_embeddings(Y, X)
    A = offdiag_full(c)
    gens = []
    for e, dir in Y.lattice.generators():
        gens.append((e, linalg.mat_vec(F, embY, dir)))
    for e, dir in X.lattice.generators():
        twisted = linalg.mat_vec(F, embY, linalg.mat_vec(F, A, dir))
        vec = linalg.vec_add(F, twisted, linalg.mat_vec(F, embX, dir))
        gens.append((e, vec))
    E = CObject(F, TorsionPart(()), canonicalize(F, gens, Z.p, Z.q))
    inject = sum_inclusion(E, Y, embY, {})
    surject = sum_projection(E, X, embX, {})
    return ShortExactSeq(Y, E, X, inject, surject, c)


def _general_extension(c: ExtClass) -> ShortExactSeq:
    F = c.src.field
    X, Y = c.src, c.dst
    loX, hiX = window_bounds(X)
    loY, hiY = window_bounds(Y)
    lo, hi = min(loX, loY), max(hiX, hiY)
    wmY, chartY = model_of(Y, lo, hi)
    wmX, chartX = model_of(X, lo, hi)
    Z, (embY, _), (embX, _) = sum_embeddings(Y, X)

    dims = tuple(ny + nx for ny, nx in zip(wmY.dims, wmX.dims))
    xmaps = []
    for d in range(lo, hi):
        ny, ny1 = wmY.dims[d - lo], wmY.dims[d + 1 - lo]
        nx, nx1 = wmX.dims[d - lo], wmX.dims[d + 1 - lo]
        xy, xx = wmY.xmaps[d - lo], wmX.xmaps[d - lo]
        rows = []
        for i in range(ny1):
            row = list(xy[i]) + [F.zero] * nx
            rows.append(row)
        for i in range(nx1):
            rows.append([F.zero] * ny + list(xx[i]))
        # the class twists the top of each torsion summand of X into Y
        for t, (n, a) in enumerate(X.torsion.summands):
            if d == n - a - 1:
                col = ny + X.torsion_slot(t, d)
                for i in range(ny1):
                    rows[i][col] = F.add(rows[i][col], c.tor[t][i])
        xmaps.append(tuple(map(tuple, rows)))
    A = offdiag_full(c)
    chart_cols = []
    for t in range(wmY.dims[-1]):
        col = tuple(chartY[i][t] for i in range(Y.rank))
        chart_cols.append(linalg.mat_vec(F, embY, col))
    for t in range(wmX.dims[-1]):
        col = tuple(chartX[i][t] for i in range(X.rank))
        vec = linalg.mat_vec(F, embX, col)
        vec = linalg.vec_add(F, vec, linalg.mat_vec(F, embY, linalg.mat_vec(F, A, col)))
        chart_cols.append(vec)
    chart = linalg.transpose(chart_cols) if chart_cols else ()
    wmE = window.WindowModule(F, tuple(range(lo, hi + 1)), dims, tuple(xmaps))
    summands, lat, phi_inv = window.reconstruct_parts(wmE, chart, Z.p, Z.q)
    E = CObject(F, TorsionPart(summands), lat)
    # phi_inv carries the canonical model of E onto wmE; its inverse is the
    # certificate that the two are isomorphic.
    phi = {d: linalg.inverse(F, phi_inv[d]) for d in range(lo, hi + 1)}
    if any(m is None for m in phi.values()):
        raise ZdinftyError("no equivariant isomorphism onto the canonical middle")

    psi_in = {}
    psi_out = {}
    for d in range(lo, hi + 1):
        ny = wmY.dims[d - lo]
        psi_in[d] = tuple(tuple(row[:ny]) for row in phi[d])
        psi_out[d] = phi_inv[d][ny:]
    inject = morphism_from_degreewise(Y, E, psi_in, lo, hi)
    surject = morphism_from_degreewise(E, X, psi_out, lo, hi)
    return ShortExactSeq(Y, E, X, inject, surject, c)


def morphism_from_degreewise(src: CObject, dst: CObject, psi, lo: int, hi: int) -> Morphism:
    """Recover blockwise morphism data from degreewise slot matrices."""
    F = src.field
    if src.rank > 0:
        Gd = dst.lattice.generator_matrix() if dst.rank > 0 else ()
        # ambient block matrix from the top of the window
        M = linalg.mm(
            F,
            linalg.mm(F, Gd, psi[hi], dst.rank, src.rank) if dst.rank else (),
            src.lattice.generator_inverse,
            src.rank,
            src.rank,
        )
        a00 = tuple(tuple(M[i][k] for k in range(src.p)) for i in range(dst.p))
        a11 = tuple(
            tuple(M[dst.p + i][src.p + k] for k in range(src.q)) for i in range(dst.q)
        )
        for i in range(dst.rank):
            for k in range(src.rank):
                if (i < dst.p) != (k < src.p) and not F.is_zero(M[i][k]):
                    raise ShapeMismatch("degreewise map is not type-diagonal")
    else:
        a00 = linalg.zeros(F, dst.p, 0)
        a11 = linalg.zeros(F, dst.q, 0)
    # torsion scalars: each source summand's column at its birth degree
    S, T = src.torsion, dst.torsion
    tt = [[F.zero] * len(S.summands) for _ in T.summands]
    for i, (_, a) in enumerate(S.summands):
        col = src.torsion_slot(i, -a)
        rows = psi[-a][dst.lattice.dim_at(-a):]
        for k, row in zip(T.slots_at(-a), rows):
            if not F.is_zero(row[col]):
                if not torsion_compatible(S, i, T, k):
                    raise ShapeMismatch("torsion summand maps where x-power kills it")
                tt[k][i] = row[col]
    ft = tuple(
        tuple(row[j] for row in psi[e][dst.lattice.dim_at(e):])
        for j, (e, _) in enumerate(src.lattice.generators())
    )
    m = morphism_from_parts(src, dst, a00, a11, tt, ft)
    for d in range(lo, hi + 1):
        ns, nd = src.lattice.dim_at(d), dst.lattice.dim_at(d)
        if any(not F.is_zero(c) for row in psi[d][:nd] for c in row[ns:]):
            raise ShapeMismatch("torsion maps into the lattice part")
        if tuple(tuple(row[ns:]) for row in psi[d][nd:]) != m.tt_at(d):
            raise ShapeMismatch("torsion block is not the x-power of its birth degree")
    return m


def class_of_sequence(inject: Morphism, surject: Morphism) -> ExtClass:
    """Extension class of 0 -> Y -> E -> X -> 0 from its two maps."""
    if inject.dst != surject.src:
        raise ShapeMismatch("maps do not share a middle object")
    F = inject.src.field
    Y, E, X = inject.src, inject.dst, surject.dst

    def lift(d, pos, what):
        """A preimage under the surjection of the slot vector at pos in degree d."""
        target = tuple(F.one if k == pos else F.zero for k in range(X.module_dim_at(d)))
        v = linalg.solve(F, morphism_degreewise(surject, d), target)
        if v is None:
            raise ZdinftyError(f"surjection misses a {what}")
        return v

    tor = []
    for i, (n, a) in enumerate(X.torsion.summands):
        v = lift(-a, X.torsion_slot(i, -a), "torsion generator")
        lifted = linalg.mat_vec(F, module_xpower(E, -a, n - a), v)
        y = linalg.solve(F, morphism_degreewise(inject, n - a), lifted)
        if y is None:
            raise ZdinftyError("x-power of the lift escapes the kernel")
        tor.append(tuple(y))
    h01 = linalg.zeros(F, Y.q, X.p)
    h10 = linalg.zeros(F, Y.p, X.q)
    if X.rank > 0 and Y.rank > 0:
        # a graded splitting of the surjection on the free part, pushed
        # through a type-diagonal retraction of the localized inclusion
        lifts = [
            (e, lift(e, j, "lattice generator"))
            for j, (e, _) in enumerate(X.lattice.generators())
        ]
        w0 = _left_inverse(F, inject.a00, E.p, Y.p)
        w1 = _left_inverse(F, inject.a11, E.q, Y.q)
        cols = []
        for e, v in lifts:
            amb = E.lattice_vector(e, v)
            cols.append(linalg.mat_vec(F, w0, amb[:E.p]) + linalg.mat_vec(F, w1, amb[E.p:]))
        D = linalg.mm(F, linalg.transpose(cols), X.lattice.generator_inverse, X.rank, X.rank)
        h01, h10 = offdiag_blocks(D, X, Y)
    return ext_space(X, Y).reduce(h01, h10, tuple(tor))


def _left_inverse(F, B, nrows, ncols):
    out = []
    Bt = [[B[i][k] for i in range(nrows)] for k in range(ncols)]
    for i in range(ncols):
        target = tuple(F.one if k == i else F.zero for k in range(ncols))
        w = linalg.solve(F, Bt, target) if ncols else ()
        if w is None:
            raise ZdinftyError("inclusion has no type-diagonal retraction")
        out.append(tuple(w))
    return out
