"""Almost split sequences, extension middles, quiver windows.

A degree-one class is realized as an honest short exact sequence: for
torsion-free ends the middle lattice is generated by the twisted columns
[B' | A B; 0 | B]; in the presence of torsion the extension is assembled
degreewise (the class data feeds the x-action and the localization chart),
its canonical form is reconstructed, and the adapted basis found with it
transports the inclusion and projection onto the canonical middle.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg, window
from .errors import (
    NotIndecomposable,
    RangeError,
    ShapeMismatch,
    WindowTooSmall,
    WitnessNotFound,
    ZdinftyError,
)
from .fields import FieldSpec
from .homext import (
    ExtClass,
    Morphism,
    diag_blocks,
    ext_space,
    hom_space,
    morphism_degreewise,
    morphism_from_parts,
    offdiag_blocks,
    offdiag_full,
    sum_inclusion,
    sum_projection,
    torsion_compatible,
    zero_class,
)
from .decomp import (
    IndecLabel,
    decompose,
    label_to_object,
    rank_one_label,
    rank_two_label,
    serre_twist_label,
    shift_label,
    wing,
)
from .lattice import canonicalize
from .objects import (
    CObject,
    TorsionPart,
    direct_sum,
    module_xpower,
    serre_twist,
    shift,
    sigma,
    slot_events,
    window_bounds,
)


@dataclass(frozen=True)
class ShortExactSeq:
    left: CObject
    middle: CObject
    right: CObject
    inject: Morphism  # left -> middle
    surject: Morphism  # middle -> right
    cls: ExtClass  # in Ext(right, left)

    def is_split(self) -> bool:
        return self.cls.is_zero()


def split_sequence(Y: CObject, X: CObject) -> ShortExactSeq:
    """The split extension of X by Y."""
    Z, e1, e2, t1, t2 = direct_sum(Y, X)
    inject = sum_inclusion(Z, Y, e1, t1)
    surject = sum_projection(Z, X, e2, t2)
    return ShortExactSeq(Y, Z, X, inject, surject, zero_class(X, Y))


def extension_object(c: ExtClass) -> ShortExactSeq:
    """Short exact sequence 0 -> Y -> E -> X -> 0 realizing the class."""
    X, Y = c.src, c.dst
    if c.is_zero():
        return split_sequence(Y, X)
    if X.is_torsion_free() and Y.is_torsion_free():
        return _lattice_extension(c)
    return _general_extension(c)


def _twisted_frame(c: ExtClass):
    """(Z, embY, embX, gens): the direct sum Z of Y and X, the embeddings of
    their ambient coordinates, and the middle's generators, Y's embedded and
    then X's (e, dir) twisted to (e, (embX + embY A) dir), A = ``offdiag_full``."""
    F = c.src.field
    X, Y = c.src, c.dst
    Z, embY, embX, _, _ = direct_sum(Y, X)
    twist = linalg.mat_add(F, embX, linalg.mm(F, embY, offdiag_full(c), Y.rank, X.rank))
    gens = [(e, linalg.mat_vec(F, embY, dir)) for e, dir in Y.lattice.generators()]
    gens += [(e, linalg.mat_vec(F, twist, dir)) for e, dir in X.lattice.generators()]
    return Z, embY, embX, gens


def _lattice_extension(c: ExtClass) -> ShortExactSeq:
    F = c.src.field
    X, Y = c.src, c.dst
    Z, embY, embX, gens = _twisted_frame(c)
    E = CObject(F, TorsionPart(()), canonicalize(F, gens, Z.p, Z.q))
    inject = sum_inclusion(E, Y, embY, {})
    surject = sum_projection(E, X, embX, {})
    return ShortExactSeq(Y, E, X, inject, surject, c)


def _general_extension(c: ExtClass) -> ShortExactSeq:
    """The middle as a window module: degreewise Y + X, with x twisted by the
    class on each torsion summand of X, and charted at the top degree by the
    twisted frame (there the slots are Y's generators, then X's, in order).

    The window lists only the event degrees: lo, hi and the slot events of X
    and Y.  Between two of them x is the slot identity; the class twists a
    torsion summand of X from its last degree n - a - 1 into its death n - a,
    which is an event.  So the sweep, the certificate and the maps cost the
    same whatever the length of a bar."""
    F = c.src.field
    X, Y = c.src, c.dst
    (loX, hiX), (loY, hiY) = window_bounds(X), window_bounds(Y)
    degrees = tuple(sorted({min(loX, loY), max(hiX, hiY)} | slot_events(X) | slot_events(Y)))
    Z, _, _, gens = _twisted_frame(c)

    dims = tuple(Y.module_dim_at(d) + X.module_dim_at(d) for d in degrees)
    xmaps = []
    for e in degrees[1:]:
        d = e - 1  # x steps from d into the listed degree e
        ny, nx = Y.module_dim_at(d), X.module_dim_at(d)
        rows = [list(row) + [F.zero] * nx for row in module_xpower(Y, d, d + 1)]
        rows += [[F.zero] * ny + list(row) for row in module_xpower(X, d, d + 1)]
        # the class twists the top of each torsion summand of X into Y
        for t, (n, a) in enumerate(X.torsion.summands):
            if d == n - a - 1:
                col = ny + X.torsion_slot(t, d)
                for row, entry in zip(rows, c.tor[t]):
                    row[col] = F.add(row[col], entry)
        xmaps.append(tuple(map(tuple, rows)))
    chart = linalg.transpose([dir for _, dir in gens])
    wmE = window.WindowModule(F, degrees, dims, tuple(xmaps))
    summands, lat, phi_inv = window.reconstruct_parts(wmE, chart, Z.p, Z.q)
    E = CObject(F, TorsionPart(summands), lat)
    # phi_inv carries the canonical model of E onto wmE; its inverse at every
    # listed degree is the certificate that the two are isomorphic.
    phi = {d: linalg.inverse(F, phi_inv[d]) for d in degrees}
    if any(m is None for m in phi.values()):
        raise ZdinftyError("no equivariant isomorphism onto the canonical middle")

    psi_in = {d: tuple(row[: Y.module_dim_at(d)] for row in phi[d]) for d in degrees}
    psi_out = {d: phi_inv[d][Y.module_dim_at(d):] for d in degrees}
    inject = morphism_from_degreewise(Y, E, psi_in)
    surject = morphism_from_degreewise(E, X, psi_out)
    return ShortExactSeq(Y, E, X, inject, surject, c)


def morphism_from_degreewise(src: CObject, dst: CObject, psi) -> Morphism:
    """Recover blockwise morphism data from degreewise slot matrices.

    ``psi`` maps each listed degree to the slot matrix there.  The listed
    degrees must include a top one, where both lattices are stable, and
    every lattice jump and torsion birth of src; only they are read and
    checked."""
    F = src.field
    # ambient block matrix from the top of the window
    top = linalg.mm(F, dst.lattice.generator_matrix(), psi[max(psi)], dst.rank, src.rank)
    M = linalg.mm(F, top, src.lattice.generator_inverse, src.rank, src.rank)
    h01, h10 = offdiag_blocks(M, src, dst)
    if any(not F.is_zero(x) for row in h01 + h10 for x in row):
        raise ShapeMismatch("degreewise map is not type-diagonal")
    a00, a11 = diag_blocks(M, src, dst)
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
    for d, block in psi.items():
        ns, nd = src.lattice.dim_at(d), dst.lattice.dim_at(d)
        if any(not F.is_zero(c) for row in block[:nd] for c in row[ns:]):
            raise ShapeMismatch("torsion maps into the lattice part")
        if tuple(tuple(row[ns:]) for row in block[nd:]) != m.tt_at(d):
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
    """A left inverse of the nrows x ncols matrix B, zero off B's pivot rows
    (the pivots of the rows of B transposed), where it is the inverse of
    those rows of B."""
    _, pivots = linalg.rref(F, linalg.transpose(B))
    if len(pivots) < ncols:
        raise ZdinftyError("inclusion has no type-diagonal retraction")
    inv = linalg.inverse(F, [B[i] for i in pivots])
    cols = dict(zip(pivots, linalg.transpose(inv)))
    return linalg.transpose([cols.get(i, (F.zero,) * ncols) for i in range(nrows)])


def verify_exact(seq: ShortExactSeq) -> None:
    """Degreewise check (mono, epi, image equals kernel) at each slot event of
    the three objects and the degree before it.  Below the lowest event every
    piece is zero, and from one event up to the next the slots of the three
    objects, and so the slot matrices of both maps, stay the same.  So these
    degrees see every matrix the maps have, and the cost does not grow with
    the length of a bar."""
    F = seq.left.field
    events = set().union(*map(slot_events, (seq.left, seq.middle, seq.right)))
    for d in sorted(events | {e - 1 for e in events}):
        mi = morphism_degreewise(seq.inject, d)
        ms = morphism_degreewise(seq.surject, d)
        n_left = seq.left.module_dim_at(d)
        n_mid = seq.middle.module_dim_at(d)
        n_right = seq.right.module_dim_at(d)
        if n_left + n_right != n_mid:
            raise ZdinftyError(f"degree {d}: dimensions are not additive")
        if len(linalg.nullspace(F, mi, ncols=n_left)) != 0:
            raise ZdinftyError(f"degree {d}: inclusion is not injective")
        if linalg.rank(F, ms) != n_right:
            raise ZdinftyError(f"degree {d}: projection is not surjective")
        comp = linalg.mm(F, ms, mi, n_mid, n_left)
        for row in comp:
            for entry in row:
                if not F.is_zero(entry):
                    raise ZdinftyError(f"degree {d}: composite is nonzero")


# ---------------------------------------------------------------------------
# almost split sequences


@dataclass(frozen=True)
class AlmostSplitSequence:
    seq: ShortExactSeq
    left_label: IndecLabel
    middle_factors: tuple
    right_label: IndecLabel


def almost_split(X: CObject) -> AlmostSplitSequence:
    """The almost split sequence ending in an indecomposable object.

    The left term is the twist of X; the class is the generator of the
    one-dimensional extension space.
    """
    from .decomp import identify

    if X.is_zero() or hom_space(X, X).dim != 1:
        raise NotIndecomposable("almost split sequences end in indecomposables")
    VX = serre_twist(X)
    space = ext_space(X, VX)
    if space.dim != 1:
        raise ZdinftyError(
            f"extension space against the twist has dimension {space.dim}, expected 1"
        )
    seq = extension_object(space.basis[0])
    dec = decompose(seq.middle)
    return AlmostSplitSequence(seq, identify(VX), dec.factors, identify(X))


def no_proj_no_inj_witness(X: CObject, bound: int = 8):
    """Least twists certifying X is neither projective nor injective.

    Returns (n_epi, n_mono): the least n with nonzero extensions of X by the
    n-fold negative shift of its swap, and dually.
    """
    if X.is_zero() or hom_space(X, X).dim != 1:
        raise NotIndecomposable("witness search expects an indecomposable object")
    n_epi = None
    n_mono = None
    for n in range(1, bound + 1):
        if n_epi is None and ext_space(X, shift(sigma(X), -n)).dim > 0:
            n_epi = n
        if n_mono is None and ext_space(shift(sigma(X), n), X).dim > 0:
            n_mono = n
        if n_epi is not None and n_mono is not None:
            return n_epi, n_mono
    raise WitnessNotFound(f"no witness within twist bound {bound}")


# ---------------------------------------------------------------------------
# quiver windows

# Largest a_max - a_min and m_max + n_max a quiver window accepts; a window
# at both limits takes about 10 s and 440 MB over Q (Python 3.11.7, 2 cores).
MAX_QUIVER_A_SPAN = 2000
MAX_QUIVER_SIZE = 100


@dataclass(frozen=True)
class QuiverWindow:
    nodes: tuple  # sorted IndecLabels
    arrows: tuple  # sorted (src, dst) pairs with multiplicity
    translation: tuple  # sorted (node, tau(node)) pairs within the window
    boundary_dropped: int


def quiver_window(
    field: FieldSpec, m_max: int, a_min: int, a_max: int, n_max: int
) -> QuiverWindow:
    """Mesh-generated window of the two quiver components.

    Arrows into each node are the middle summands of its almost split
    sequence; arrows with an endpoint outside the window are dropped and
    counted.  The degree shift X -> X(s) is an exact autoequivalence that
    commutes with the translate, so it carries the almost split sequence
    ending in B onto the one ending in B(s).  One sequence per shape (kind
    and size) is therefore computed, at the lowest a of the enlarged window,
    and shifted along the row: m_max + n_max + 4 sequences whatever the
    a-range.  Windows wider than MAX_QUIVER_A_SPAN or larger than
    MAX_QUIVER_SIZE in m_max + n_max raise RangeError before any sequence is
    computed.
    """
    if m_max < 1 or n_max < 1 or a_min > a_max:
        raise WindowTooSmall("window needs m_max >= 1, n_max >= 1, a_min <= a_max")
    if a_max - a_min < 1:
        raise WindowTooSmall("window cannot contain a full mesh")
    if a_max - a_min > MAX_QUIVER_A_SPAN or m_max + n_max > MAX_QUIVER_SIZE:
        raise RangeError(
            f"quiver window needs a_max - a_min <= {MAX_QUIVER_A_SPAN}"
            f" and m_max + n_max <= {MAX_QUIVER_SIZE}"
        )

    def shapes(mm, nn):
        """One label of each shape of the rows up to m = mm and n = nn, at a = 0."""
        out = [rank_one_label(0, 0), rank_one_label(1, 0)]
        out += [rank_two_label(m, 0) for m in range(1, mm + 1)]
        out += [wing(n, 0) for n in range(1, nn + 1)]
        return out

    inside = {
        shift_label(S, a) for S in shapes(m_max, n_max) for a in range(a_min, a_max + 1)
    }
    arrows = []
    dropped = 0
    for S in shapes(m_max + 1, n_max + 1):
        base = shift_label(S, a_min - 1)
        middle = almost_split(label_to_object(field, base)).middle_factors
        for s in range(a_max - a_min + 3):
            B = shift_label(base, s)
            for A in middle:
                A = shift_label(A, s)
                if A in inside and B in inside:
                    arrows.append((A, B))
                elif A in inside or B in inside:
                    dropped += 1
    translation = []
    for node in inside:
        tau = serre_twist_label(node)
        if tau in inside:
            translation.append((node, tau))
    nodes = tuple(sorted(inside, key=lambda l: l.sort_key()))
    arrows.sort(key=lambda ab: (ab[0].sort_key(), ab[1].sort_key()))
    translation.sort(key=lambda ab: ab[0].sort_key())
    return QuiverWindow(nodes, tuple(arrows), tuple(translation), dropped)


def node_id(label: IndecLabel) -> str:
    if label.kind == "rank_one":
        i, a = label.params
        return f"F{i}_{a}"
    if label.kind == "rank_two":
        m, a = label.params
        return f"F_{m}_{a}"
    n, a = label.params
    return f"T_{n}_{a}"


def dot_export(w: QuiverWindow) -> str:
    """Deterministic DOT digraph; dashed edges mark the translation."""
    lines = ["digraph ar_quiver {"]
    for node in w.nodes:
        lines.append(f'  "{node_id(node)}";')
    for a, b in w.arrows:
        lines.append(f'  "{node_id(a)}" -> "{node_id(b)}";')
    for node, tau in w.translation:
        lines.append(f'  "{node_id(node)}" -> "{node_id(tau)}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def window_to_json(w: QuiverWindow) -> dict:
    """JSON-ready form of a quiver window (schema zdinfty.quiver/1)."""
    return {
        "schema": "zdinfty.quiver/1",
        "nodes": [str(n) for n in w.nodes],
        "arrows": [[str(a), str(b)] for a, b in w.arrows],
        "translation": {str(n): str(t) for n, t in w.translation},
        "boundary_dropped": w.boundary_dropped,
    }
