"""Almost split sequences, extension middles, quiver windows.

A degree-one class is realized as an honest short exact sequence.  With no
torsion part, the middle is the torsion of both ends plus the lattice of the
twisted columns [B' | A B; 0 | B]; a class that glues torsion is assembled
degreewise, the window sweep reconstructs its canonical form, and the
adapted basis found with it transports the inclusion and projection onto
the canonical middle.  Each builder returns the middle with what builds the
two maps, so a caller that reads only the middle builds no map.

An almost split sequence is read off the classification: ``identify``
decides that X is indecomposable and names it, the left term is the
translate of that name and the middle factors are its mesh
(``mesh_middle_labels``).  The class and the middle are built, and the
middle is checked against the factors with no elimination; the sequence,
with both maps, is built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import linalg, window
from .errors import (
    NotIndecomposable,
    RangeError,
    ShapeMismatch,
    UnrecognizedShape,
    WindowTooSmall,
    WitnessNotFound,
    ZdinftyError,
)
from .homext import (
    ExtClass,
    Morphism,
    constant_blocks,
    ext_space,
    morphism_degreewise,
    morphism_from_parts,
    sum_inclusion,
    sum_projection,
    torsion_compatible,
)
from .decomp import (
    IndecLabel,
    identify,
    label_shape,
    label_window,
    mesh_middle_labels,
    object_shape,
    serre_twist_label,
    shift_label,
)
from .lattice import canonicalize
from .objects import (
    CObject,
    TorsionPart,
    module_xpower,
    place_rows,
    serre_twist,
    serre_untwist,
    slot_events,
    sum_layout,
    sum_places,
)

__all__ = [
    "ShortExactSeq", "AlmostSplitSequence", "QuiverWindow", "almost_split",
    "extension_object", "class_of_sequence", "quiver_window", "dot_export",
    "no_proj_no_inj_witness",
]


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


def extension_object(c: ExtClass) -> ShortExactSeq:
    """Short exact sequence 0 -> Y -> E -> X -> 0 realizing the class, with
    both maps built."""
    E, maps = extension_middle(c)
    return ShortExactSeq(c.dst, E, c.src, *maps(), c)


def extension_middle(c: ExtClass):
    """(E, maps): the middle of the class and a function that builds the
    inclusion and the projection of its sequence.  Only a nonzero torsion
    block, which glues torsion of X into Y, needs the sweep."""
    if any(map(any, c.tor)):
        return _general_extension(c)
    return _frame_extension(c)


def _frame_generators(c: ExtClass, r: int, placeY, placeX) -> list:
    """The middle's generators in the r coordinates of Y + X: Y's (e, dir)
    with dir at Y's coordinates, then X's (e, dir) with dir at X's
    coordinates and the class's image of dir (``ExtClass.apply``) at Y's."""
    F = c.src.field
    gens = [(e, place_rows(F, r, (placeY, dir))) for e, dir in c.dst.lattice.generators()]
    gens += [
        (e, place_rows(F, r, (placeX, dir), (placeY, c.apply(dir))))
        for e, dir in c.src.lattice.generators()
    ]
    return gens


def _frame_extension(c: ExtClass):
    """The middle of a class with no torsion part, the split class among
    them: Ext(lattice, torsion) = D Hom(torsion, V lattice) = 0, so every
    torsion summand splits off, and E is the sum's torsion plus the
    canonical form of the twisted frame.  The sum is laid out by
    ``objects.sum_layout`` (its lattice unbuilt), and the maps are the
    summands' inclusion and projection."""
    F = c.src.field
    X, Y = c.src, c.dst
    p, q, torsion, (inY, inX) = sum_layout([Y, X])
    gens = _frame_generators(c, p + q, inY[0], inX[0])
    E = CObject(F, torsion, canonicalize(F, gens, p, q))
    return E, lambda: (sum_inclusion(E, Y, *inY), sum_projection(E, X, *inX))


def _general_extension(c: ExtClass):
    """The middle as a window module: degreewise Y + X, with x twisted by the
    class on each torsion summand of X, and charted at the top degree by the
    twisted frame (there the slots are Y's generators, then X's, in order).
    The frame is placed by ``objects.sum_places`` alone: the sweep finds the
    middle's torsion, so the ends' torsion summands are not merged.

    The window lists only the slot events of X and Y: the lowest is where
    the first piece appears, and at the highest every torsion summand is
    dead and both lattices are whole.  Between two of them x is the slot
    identity; the class twists a torsion summand of X from its last degree
    n - a - 1 into its death n - a, which is an event.  So the sweep, the
    certificate and the maps cost the same whatever the length of a bar.

    The slots at e - 1 are those of the listed degree before e, so each
    end's slots, and so each slot count, are read once per listed degree,
    and each x-map is written once from them and the class twist.  The
    certificate is checked here; the maps are built when asked for."""
    F = c.src.field
    X, Y = c.src, c.dst
    degrees = tuple(sorted(slot_events(X) | slot_events(Y)))
    p, q, (placeY, placeX) = sum_places([Y, X])
    gens = _frame_generators(c, p + q, placeY, placeX)

    # Each slot of Y + X is named by an int: Y's generators, Y's torsion
    # summands, X's generators, X's torsion summands.  x carries a slot to
    # the slot of the same name at the next listed degree, or kills it.
    ty = Y.rank
    gx = ty + len(Y.torsion.summands)
    tx = gx + X.rank
    ny, slots = [], []  # per listed degree: Y's slot count, {name: slot}
    for d in degrees:
        gy, y_alive = Y.lattice.dim_at(d), Y.torsion.slots_at(d)
        names = [*range(gy), *[ty + i for i in y_alive],
                 *range(gx, gx + X.lattice.dim_at(d)), *[tx + i for i in X.torsion.slots_at(d)]]
        ny.append(gy + len(y_alive))
        slots.append({name: k for k, name in enumerate(names)})
    dims = tuple(map(len, slots))
    xmaps = []
    for e, lower, upper in zip(degrees[1:], slots, slots[1:]):
        rows = [[F.zero] * len(lower) for _ in upper]
        for name, col in lower.items():
            if name in upper:
                rows[upper[name]][col] = F.one
        # the class twists the top of each torsion summand of X dying at e into Y
        for t, (n, a) in enumerate(X.torsion.summands):
            if n - a == e:
                col = lower[tx + t]
                for row, entry in zip(rows, c.tor[t]):
                    row[col] = entry
        xmaps.append(tuple(map(tuple, rows)))
    chart = linalg.transpose([dir for _, dir in gens])
    wmE = window.WindowModule(F, degrees, dims, tuple(xmaps))
    summands, lat, phi_inv = window.reconstruct_parts(wmE, chart, p, q)
    E = CObject(F, TorsionPart(summands), lat)
    # phi_inv carries the canonical model of E onto wmE; square and of full
    # rank at every listed degree, it certifies that the two are isomorphic.
    if any(
        E.module_dim_at(d) != n or linalg.rank(F, phi_inv[d]) != n
        for d, n in zip(degrees, dims)
    ):
        raise ZdinftyError("no equivariant isomorphism onto the canonical middle")

    def maps():
        phi = {d: linalg.inverse(F, phi_inv[d]) for d in degrees}
        psi_in = {d: tuple(row[:k] for row in phi[d]) for d, k in zip(degrees, ny)}
        psi_out = {d: phi_inv[d][k:] for d, k in zip(degrees, ny)}
        return morphism_from_degreewise(Y, E, psi_in), morphism_from_degreewise(E, X, psi_out)

    return E, maps


def morphism_from_degreewise(src: CObject, dst: CObject, psi) -> Morphism:
    """Recover blockwise morphism data from degreewise slot matrices.

    ``psi`` maps each listed degree to the slot matrix there.  The listed
    degrees must include a top one, where both lattices are stable, and
    every lattice jump and torsion birth of src; only they are read and
    checked."""
    F = src.field
    # the ambient images of src's generators at the top of the window
    top = linalg.mm(F, dst.lattice.generator_matrix(), psi[max(psi)], dst.rank, src.rank)
    a00, a11, h01, h10 = constant_blocks(src, dst, linalg.transpose(top))
    if any(map(any, h01 + h10)):
        raise ShapeMismatch("degreewise map is not type-diagonal")
    # torsion scalars: each source summand's column at its birth degree
    S, T = src.torsion, dst.torsion
    tt = [[F.zero] * len(S.summands) for _ in T.summands]
    for i, (_, a) in enumerate(S.summands):
        col = src.torsion_slot(i, -a)
        rows = psi[-a][dst.lattice.dim_at(-a):]
        for k, row in zip(T.slots_at(-a), rows):
            if row[col]:
                if not torsion_compatible(S, i, T, k):
                    raise ShapeMismatch("torsion summand maps where x-power kills it")
                tt[k][i] = row[col]
    ft = tuple(
        tuple(row[j] for row in psi[e][dst.lattice.dim_at(e):])
        for j, e in enumerate(src.lattice.jump_list)
    )
    m = morphism_from_parts(src, dst, a00, a11, tt, ft)
    for d, block in psi.items():
        ns, nd = src.lattice.dim_at(d), dst.lattice.dim_at(d)
        if any(any(row[ns:]) for row in block[:nd]):
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
            for j, e in enumerate(X.lattice.jump_list)
        ]
        w0 = _left_inverse(F, inject.a00, E.p, Y.p)
        w1 = _left_inverse(F, inject.a11, E.q, Y.q)
        cols = []
        for e, v in lifts:
            amb = E.lattice_vector(e, v)
            cols.append(linalg.mat_vec(F, w0, amb[:E.p]) + linalg.mat_vec(F, w1, amb[E.p:]))
        h01, h10 = constant_blocks(X, Y, cols)[2:]
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
        if linalg.rank(F, mi) != n_left:
            raise ZdinftyError(f"degree {d}: inclusion is not injective")
        if linalg.rank(F, ms) != n_right:
            raise ZdinftyError(f"degree {d}: projection is not surjective")
        if any(map(any, linalg.mm(F, ms, mi, n_mid, n_left))):
            raise ZdinftyError(f"degree {d}: composite is nonzero")


# ---------------------------------------------------------------------------
# almost split sequences


@dataclass(frozen=True)
class AlmostSplitSequence:
    """The class, the middle and the three labels of an almost split
    sequence.  The maps follow from the class, so the sequence itself
    (``seq``) is built on first read, around the middle: ``almost_split``
    keeps the function that builds its maps beside the fields (``_maps``,
    which pickling drops), and a sequence made otherwise is
    ``extension_object`` of the class."""

    cls: ExtClass  # spans Ext(X, VX)
    middle: CObject
    left_label: IndecLabel
    middle_factors: tuple
    right_label: IndecLabel

    @cached_property
    def seq(self) -> ShortExactSeq:
        maps = self.__dict__.pop("_maps", None)
        if maps is None:
            return extension_object(self.cls)
        return ShortExactSeq(self.cls.dst, self.middle, self.cls.src, *maps(), self.cls)

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_maps"}


def almost_split(X: CObject) -> AlmostSplitSequence:
    """The almost split sequence ending in an indecomposable object.

    X is indecomposable exactly when the classification names it, so
    ``identify`` decides, and the translate and the mesh act on its name:
    the left term is ``serre_twist_label`` of it and the middle factors are
    ``mesh_middle_labels`` of it.  The class is the generator of the
    one-dimensional extension space Ext(X, VX); the middle is built from it
    and checked against the factors (``_check_mesh``).  No Hom space is
    solved and nothing is decomposed.
    """
    try:
        right = identify(X)
    except UnrecognizedShape:
        raise NotIndecomposable("almost split sequences end in indecomposables") from None
    space = ext_space(X, serre_twist(X))
    if space.dim != 1:
        raise ZdinftyError(
            f"extension space against the twist has dimension {space.dim}, expected 1"
        )
    cls = space.basis[0]
    E, maps = extension_middle(cls)
    factors = mesh_middle_labels(right)
    _check_mesh(E, factors)
    mesh = AlmostSplitSequence(cls, E, serre_twist_label(right), factors, right)
    object.__setattr__(mesh, "_maps", maps)
    return mesh


def _check_mesh(E: CObject, factors) -> None:
    """Raise ZdinftyError unless the built middle E has the shape of the
    mesh factors (``label_shape`` against ``object_shape``), with no
    elimination.

    E's torsion summands must be the wings' (n, a): for a wing's sequence,
    whose middle is all torsion, that is its whole decomposition.  E's
    (p, q) and jumps must be those of the lattice factors.  That part is
    only a consistency check in K0, the Grothendieck group: it compares
    dimension counts, not isomorphism classes, and the split middle passes
    it too.
    """
    if label_shape(factors) != object_shape(E):
        raise ZdinftyError("the built middle does not match the mesh rule")


def no_proj_no_inj_witness(X: CObject):
    """Least twists certifying X is neither projective nor injective.

    Returns (n_epi, n_mono): the least n >= 1 with nonzero extensions of X
    by the n-fold negative shift of its swap, and the least n >= 1 with
    nonzero extensions of the n-fold positive shift of its swap by X.  X
    must be indecomposable, which ``identify`` decides, as in
    ``almost_split``.

    Both are 1, by Serre duality Ext(A, B) = D Hom(B, VA) with V an
    autoequivalence: shift(sigma(X), -1) is the twist VX, and
    Ext(X, VX) = D End(VX) = D End(X); shift(sigma(X), 1) is V^-1 X
    (``serre_untwist``), and Ext(V^-1 X, X) = D End(X).  End(X) holds the
    identity, so both spaces are nonzero.  They are computed, and
    WitnessNotFound is raised if either is zero (a bug signal).
    """
    try:
        identify(X)
    except UnrecognizedShape:
        raise NotIndecomposable("witness search expects an indecomposable object") from None
    if ext_space(X, serre_twist(X)).dim == 0 or ext_space(serre_untwist(X), X).dim == 0:
        raise WitnessNotFound("an extension space against the twist is zero, but D End(X) is not")
    return 1, 1


# ---------------------------------------------------------------------------
# quiver windows

# Largest a_max - a_min and m_max + n_max a quiver window accepts; a window
# at both limits takes about 10 s and 420 MB over Q (Python 3.11.7, 2 cores).
MAX_QUIVER_A_SPAN = 2000
MAX_QUIVER_SIZE = 100


@dataclass(frozen=True)
class QuiverWindow:
    nodes: tuple  # sorted IndecLabels
    arrows: tuple  # sorted (src, dst) pairs with multiplicity
    translation: tuple  # sorted (node, tau(node)) pairs within the window
    boundary_dropped: int


def quiver_window(m_max: int, a_min: int, a_max: int, n_max: int) -> QuiverWindow:
    """Mesh-generated window of the two quiver components.

    Arrows into each node are the middle factors of its almost split
    sequence, which the classification gives (``mesh_middle_labels``);
    arrows with an endpoint outside the window are dropped and counted.  No
    sequence is built: ``almost_split`` builds and checks the same middles.
    The degree shift X -> X(s) is an exact autoequivalence that commutes
    with the translate, so it carries the mesh ending in B onto the one
    ending in B(s).  One mesh per shape (kind and size) is therefore read,
    at the lowest a of the enlarged window (``decomp.label_window``), and
    shifted along the row: m_max + n_max + 4 meshes whatever the a-range.
    Windows wider than MAX_QUIVER_A_SPAN or larger than MAX_QUIVER_SIZE in
    m_max + n_max raise RangeError before any mesh is read.  The window is
    the same over every field, so it takes none.
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

    nodes = tuple(label_window(m_max, n_max, a_min, a_max))
    inside = set(nodes)
    arrows = []
    dropped = 0
    for base in label_window(m_max + 1, n_max + 1, a_min - 1, a_min - 1):
        middle = mesh_middle_labels(base)
        for s in range(a_max - a_min + 3):
            B = shift_label(base, s)
            for A in middle:
                A = shift_label(A, s)
                if A in inside and B in inside:
                    arrows.append((A, B))
                elif A in inside or B in inside:
                    dropped += 1
    translation = tuple(
        (node, tau) for node, tau in zip(nodes, map(serre_twist_label, nodes)) if tau in inside
    )
    arrows.sort(key=lambda ab: (ab[0].sort_key(), ab[1].sort_key()))
    return QuiverWindow(nodes, tuple(arrows), translation, dropped)


_NODE_ID = str.maketrans({"[": "_", ",": "_", "]": None})


def node_id(label: IndecLabel) -> str:
    """The label's text as a DOT name: ``F[3,2]`` is ``F_3_2``, ``F0[-1]`` ``F0_-1``."""
    return str(label).translate(_NODE_ID)


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
