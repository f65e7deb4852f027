"""Krull-Schmidt decomposition, identification, rank-one filtrations.

Splitting is deterministic and solves no Hom space.  Torsion summands are
stored.  A torsion-free object is a filtration S_d of V0 + V1, and by
Goursat's lemma its summands are read off the persistence module
B_d / A_d, where A_d = S_d & V0 and B_d = pi0(S_d): each bar [-a, m - a) is
an F[m, a], and the lines of A_d and C_d = S_d & V1 left over by the bars'
deaths are the F0[a] and F1[a].  One elder-rule sweep over the jumps finds
the bars and a type-split basis adapted to them, which is the isomorphism
from the direct sum of the factors (Zomorodian and Carlsson, "Computing
Persistent Homology", 2005).  ``decompose`` keeps the basis as each factor's
columns and certifies the isomorphism on them, with the conditions
``is_isomorphism`` checks on a map; the direct sum and the map are built
only when ``Decomposition.iso`` is read.

The other invariants are read off canonical forms too.  ``identify`` names
a lattice with p = q = 1 by its steps: it is F[e2 - e1, -e1] exactly when
it has two jumps e1 < e2 and the one row of S_e1 has both entries nonzero.
Otherwise it is a sum F0 + F1: with one jump both coordinate vectors enter
there, and with a zero entry the row is one coordinate vector, which enters
at e1 while the other enters at e2.  ``filtration`` reads its chain and
factors off one canonical form with the coordinates reversed, and
``end_ring`` reads the coordinates of each product off the unit basis of
``hom_space``.  ``dimensions`` counts Hom and Ext through the factors: it
decomposes both objects and counts each pair of distinct labels once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .errors import (
    DecompositionFailure,
    NotLatticeMorphism,
    UnrecognizedShape,
    ZdinftyError,
)
from .fields import FieldSpec, check_same_field
from .homext import (
    Morphism,
    _hom_count,
    compose,
    euler_form,
    hom_space,
    identity_morphism,
    morphism_from_parts,
)
from .lattice import _dual_coords, canonicalize
from .objects import (
    CObject,
    direct_sum_many,
    rank_one,
    rank_two,
    torsion_cyclic,
)

__all__ = [
    "Decomposition", "IndecLabel", "decompose", "dimensions", "end_ring", "filtration",
    "identify", "label_to_object",
]


# ---------------------------------------------------------------------------
# labels


@dataclass(frozen=True)
class IndecLabel:
    """Name of an indecomposable: Wing(n, a), RankOne(i, a) or RankTwo(m, a)."""

    kind: str  # "rank_one" | "rank_two" | "wing"
    params: tuple

    def sort_key(self):
        if self.kind == "rank_one":
            i, a = self.params
            return (self.kind, 0, a, i)
        size, a = self.params
        return (self.kind, size, a, 0)

    def __str__(self):
        if self.kind == "rank_one":
            i, a = self.params
            return f"F{i}[{a}]"
        if self.kind == "rank_two":
            m, a = self.params
            return f"F[{m},{a}]"
        n, a = self.params
        return f"T[{n},{a}]"


def wing(n: int, a: int) -> IndecLabel:
    return IndecLabel("wing", (n, a))


def rank_one_label(i: int, a: int) -> IndecLabel:
    return IndecLabel("rank_one", (i, a))


def rank_two_label(m: int, a: int) -> IndecLabel:
    return IndecLabel("rank_two", (m, a))


def label_to_object(field: FieldSpec, label: IndecLabel) -> CObject:
    if label.kind == "rank_one":
        return rank_one(field, *label.params)
    if label.kind == "rank_two":
        return rank_two(field, *label.params)
    if label.kind == "wing":
        return torsion_cyclic(field, *label.params)
    raise ZdinftyError(f"unknown label kind {label.kind!r}")


def serre_twist_label(label: IndecLabel) -> IndecLabel:
    """The translate on labels: twist by sigma and shift by -1."""
    if label.kind == "rank_one":
        i, a = label.params
        label = rank_one_label(1 - i, a)
    return shift_label(label, -1)


def mesh_middle_labels(label: IndecLabel) -> tuple:
    """The middle factors of the almost split sequence ending in the label,
    by the classification's mesh rule, in ``IndecLabel.sort_key`` order (the
    order ``decompose`` returns):

    - F0[a], F1[a]: F[1,a];
    - F[1,a]: F0[a-1] + F1[a-1] + F[2,a];
    - F[m,a], m >= 2: F[m-1,a-1] + F[m+1,a];
    - T[1,a]: T[2,a];
    - T[n,a], n >= 2: T[n-1,a-1] + T[n+1,a].
    """
    size, a = label.params
    if label.kind == "rank_one":
        return (rank_two_label(1, a),)
    if label.kind == "rank_two" and size == 1:
        return (rank_one_label(0, a - 1), rank_one_label(1, a - 1), rank_two_label(2, a))
    outer = IndecLabel(label.kind, (size + 1, a))
    if size == 1:
        return (outer,)
    return (IndecLabel(label.kind, (size - 1, a - 1)), outer)


def label_window(m_max: int, n_max: int, a_min: int, a_max: int) -> list:
    """Every F0[a], F1[a], F[m, a] with 1 <= m <= m_max and T[n, a] with
    1 <= n <= n_max, over a_min <= a <= a_max, in ``IndecLabel.sort_key``
    order."""
    rows = (("rank_one", (0, 1)), ("rank_two", range(1, m_max + 1)), ("wing", range(1, n_max + 1)))
    labels = [
        IndecLabel(kind, (size, a))
        for a in range(a_min, a_max + 1)
        for kind, sizes in rows
        for size in sizes
    ]
    return sorted(labels, key=IndecLabel.sort_key)


def shift_label(label: IndecLabel, s: int) -> IndecLabel:
    """The degree shift X(s) on labels: every kind moves its a by s."""
    size, a = label.params
    return IndecLabel(label.kind, (size, a + s))


def label_shape(labels) -> tuple:
    """(torsion summands, jumps, (p, q)) of the direct sum of the labels'
    objects, both lists sorted: T[n, a] is the summand (n, a), F0[a] and
    F1[a] jump at -a and count to p and to q, and F[m, a] jumps at -a and
    m - a and counts to both."""
    summands, jumps, p, q = [], [], 0, 0
    for label in labels:
        size, a = label.params
        if label.kind == "wing":
            summands.append((size, a))
        elif label.kind == "rank_one":
            jumps.append(-a)
            p, q = p + (size == 0), q + (size == 1)
        else:
            jumps += [-a, size - a]
            p, q = p + 1, q + 1
    return tuple(sorted(summands)), tuple(sorted(jumps)), (p, q)


def object_shape(X: CObject) -> tuple:
    """(torsion summands, jumps, (p, q)) of X, as ``label_shape`` gives them:
    both lists are stored sorted."""
    return X.torsion.summands, X.lattice.jump_list, (X.p, X.q)


# ---------------------------------------------------------------------------
# identification


def identify(X: CObject) -> IndecLabel:
    """Label an indecomposable by its lattice and torsion invariants; a
    rank-two lattice with p = q = 1 by its steps (module docstring)."""
    if X.rank == 0 and len(X.torsion.summands) == 1:
        n, a = X.torsion.summands[0]
        return wing(n, a)
    if not X.torsion.is_zero() or X.is_zero():
        raise UnrecognizedShape("not a single indecomposable shape")
    L = X.lattice
    if X.rank == 1:
        return rank_one_label(0 if X.p == 1 else 1, -L.jump_list[0])
    if X.rank == 2 and X.p == 1 and X.q == 1 and len(L.steps) == 2:
        (e1, (row,)), (e2, _) = L.steps
        if not all(row):
            raise UnrecognizedShape("pure-coordinate degrees disagree")
        return rank_two_label(e2 - e1, -e1)
    raise UnrecognizedShape(f"no classified label matches rank {X.rank}")


# ---------------------------------------------------------------------------
# endomorphism ring


@dataclass(frozen=True)
class EndRing:
    obj: CObject
    basis: tuple  # of Morphism
    table: tuple  # table[i][j]: coordinates of basis[i] . basis[j]

    @property
    def dim(self) -> int:
        return len(self.basis)


def end_ring(X: CObject) -> EndRing:
    """Basis and structure constants of the endomorphism algebra: each
    product's coordinates are read off the unit basis of ``hom_space``."""
    hs = hom_space(X, X)
    table = tuple(tuple(hs.coordinates(compose(f, g)) for g in hs.basis) for f in hs.basis)
    return EndRing(X, hs.basis, table)


# ---------------------------------------------------------------------------
# decomposition


@dataclass(frozen=True)
class Decomposition:
    """``pieces`` pairs each factor's label, sorted, with what places it in
    ``obj``: its columns (u,) for F0, (w,) for F1 and (u, w) for F[m, a], or
    the index of its torsion summand for T[n, a].  ``decompose`` has
    certified them; ``iso``, from the direct sum of the factors onto
    ``obj``, is built from them on first read."""

    obj: CObject
    pieces: tuple

    @property
    def factors(self) -> tuple:
        return tuple(label for label, _ in self.pieces)

    @cached_property
    def iso(self) -> Morphism:
        return split_isomorphism(self.obj, self.pieces)


def decompose(X: CObject) -> Decomposition:
    """Split into indecomposables, with a certified isomorphism.

    Torsion factors are read off the stored summands.  The lattice part is
    split by one elder-rule sweep over its jumps (``_lattice_pieces``), which
    also yields a type-split basis of the ambient space adapted to the
    factors.  The certificate runs here, on those columns
    (``pieces_certified``), with the conditions ``is_isomorphism`` checks on
    a map; the direct sum and the isomorphism onto X are built only when
    ``iso`` is read.  No Hom space is solved.  The zero object takes the
    same path: it has no torsion summand, its sweep yields no piece, and
    the empty pieces certify, so it gets ``Decomposition(X, ())``, whose
    ``iso`` is the identity.  Raises DecompositionFailure only if the sweep
    or the certificate fails (a bug signal).
    """
    pieces = [(wing(n, a), idx) for idx, (n, a) in enumerate(X.torsion.summands)]
    pieces += _lattice_pieces(X.lattice)
    pieces.sort(key=lambda t: t[0].sort_key())
    if not pieces_certified(X, pieces):
        raise DecompositionFailure("the split columns do not give an isomorphism")
    return Decomposition(X, tuple(pieces))


def dimensions(X: CObject, Y: CObject) -> tuple:
    """(dim Hom(X, Y), dim Ext(X, Y)), summed over pairs of factor labels.

    Both dimensions are additive over direct sums and invariant under
    isomorphism, so each is the sum over the distinct labels a of X and b of
    Y of mult(a) mult(b) times its value on the pair, two indecomposables of
    rank at most 2 built by ``label_to_object``.  A pair's dim Hom is its
    Hom count (``homext._hom_count``), and the category is hereditary, so its
    dim Ext is dim Hom less ``euler_form``, counted with no elimination.
    The fields are checked before anything is decomposed.
    """
    check_same_field(X.field, Y.field)
    xs, ys = (Counter(decompose(Z).factors) for Z in (X, Y))
    objs = {label: label_to_object(X.field, label) for label in xs | ys}
    hom = ext = 0
    for a, m in xs.items():
        for b, n in ys.items():
            h = _hom_count(objs[a], objs[b])[1]
            hom += m * n * h
            ext += m * n * (h - euler_form(objs[a], objs[b]))
    return hom, ext


def split_isomorphism(X: CObject, pieces) -> Morphism:
    """The map onto X from the direct sum of the pieces' factors, in the
    pieces' order: column k of a piece is the image of the sum's coordinate
    place[k] of its factor, and each torsion factor goes to the summand of X
    it names.  The identity when there are no pieces (X is zero)."""
    F = X.field
    if not pieces:
        return identity_morphism(X)
    big, layout = direct_sum_many([label_to_object(F, label) for label, _ in pieces])
    cols = [None] * big.rank
    ones = []  # (summand of X, summand of big) for each wing
    for (label, part), (place, tmap) in zip(pieces, layout):
        if label.kind == "wing":
            ones.append((part, tmap[0]))
            continue
        for k, col in zip(place, part):
            cols[k] = col
    return morphism_from_parts(
        big,
        X,
        linalg.transpose(cols[: big.p]),
        linalg.transpose(cols[big.p:]),
        linalg.unit_matrix(F, len(X.torsion.summands), len(big.torsion.summands), ones),
    )


def pieces_certified(X: CObject, pieces) -> bool:
    """Whether ``split_isomorphism(X, pieces)`` is an isomorphism onto X,
    decided with no sum and no map built.

    The sum's shape is ``label_shape`` of the labels; its p and q count the
    u and w columns, which a00 and a11 hold in some order.  The torsion
    block has one one per wing, in distinct columns, so its rank counts the
    distinct summands the wings name.  The sum's generators are u + w at -a
    and w at m - a for F[m, a], u at -a for F0[a] and w at -a for F1[a], and
    the map sends each to that vector padded with zeros.
    """
    zero0, zero1 = (X.field.zero,) * X.p, (X.field.zero,) * X.q
    us, ws, named, images = [], [], set(), []
    for label, part in pieces:
        if label.kind == "wing":
            named.add(part)
            continue
        a = label.params[1]
        if label.kind == "rank_two":
            m, (u, w) = label.params[0], part
            us.append(u)
            ws.append(w)
            images += [(-a, u + w), (m - a, zero0 + w)]
        elif label.params[0] == 0:
            us.append(part[0])
            images.append((-a, part[0] + zero1))
        else:
            ws.append(part[0])
            images.append((-a, zero0 + part[0]))
    shape = label_shape(label for label, _ in pieces)
    return _isomorphism_conditions(X, shape, (us, ws), len(named), images)


def is_isomorphism(m: Morphism, target: CObject) -> bool:
    """Whether the morphism is invertible onto the target, by
    ``_isomorphism_conditions``: the conditions ``decompose`` checks on its
    columns (``pieces_certified``).  Each source generator's image is a00 on
    its type-0 coordinates and a11 on its type-1 ones."""
    if m.dst != target:
        return False
    F, X = m.src.field, m.src
    images = (
        (e, linalg.mat_vec(F, m.a00, dir[:X.p]) + linalg.mat_vec(F, m.a11, dir[X.p:]))
        for e, dir in X.lattice.generators()
    )
    return _isomorphism_conditions(
        target, object_shape(X), (m.a00, m.a11), linalg.rank(F, m.tt), images
    )


def _isomorphism_conditions(target, shape, blocks, tt_rank, images) -> bool:
    """Whether a map onto ``target`` is invertible, from the source's shape
    (``object_shape``), the map's a00 and a11 (or their transposes), the
    rank of its torsion block and the images (degree, vector) of the
    source's generators.

    A block-diagonal matrix is invertible iff each diagonal block is square
    and invertible: so (p, q) must agree, and each block have full rank.

    The torsion part is invertible in every degree exactly when the one
    torsion matrix is: with the source and target summands equal, order
    them by (birth, death).  A compatible pair (k, i) has k born no later
    and dead no later than i, so the matrix is block upper triangular with
    one diagonal block per group of equal summands, and the map in degree d
    is the principal submatrix on the groups alive at d.  Every group is
    alive somewhere, so all the degreewise maps are invertible iff all the
    diagonal blocks are, iff the matrix is.

    The map must send the filtration onto the filtration; with equal jump
    multisets, each generator's image lying in the target at its jump
    suffices.
    """
    F = target.field
    if shape != object_shape(target) or tt_rank != len(shape[0]):
        return False
    for block, size in zip(blocks, shape[2]):
        if linalg.rank(F, block) != size:
            return False
    L = target.lattice
    return all(not any(_dual_coords(L, v, L.dim_at(e))) for e, v in images)


def _lattice_pieces(L) -> list:
    """Indecomposable summands of a torsion-free lattice, by one sweep.

    By Goursat's lemma S_d in V0 + V1 is fixed by A_d = S_d & V0, by
    C_d = S_d & V1, and by the persistence module B_d / A_d with
    B_d = pi0(S_d).  A bar [s, e) of that module is F[e - s, -s], and the
    lines of A_d (C_d) left over are F0 (F1).  The sweep keeps pure lines and
    live diagonal bars (u, w) with u + w in S_birth, and at each jump e:

    1. kills bars (``linalg.elder_kills`` on the columns ann0 u of the live
       bars, ann0 the type-0 block of the annihilators of S_e): every
       combination of live u's that lies in A_e kills the youngest bar in
       it, whose (u, w) becomes that combination of its own and its elders'
       vectors, so u lies in A_e and u + w in S_birth.  One ``linalg.mm`` of
       the kill rows with the live bars' u + w gives every combination,
       split at p into u and w.  The kills come elder first and are
       appended youngest first.  Where every column is zero (always at the
       top jump) each bar dies on its own;
    2. starts F0[-e] (F1[-e]) on the vectors of A_e (C_e) outside the span
       of the u's (w's) so far;
    3. starts diagonal bars on the rows of S_e outside A_e + C_e and the
       live u + w.

    Counts and short vectors stand in for most of the elimination:

    (a) v -> ann0 v[:p] sends S_e onto B_e / A_e with kernel A_e + C_e, and
        a live u + w to its bar's column.  So a row of S_e is born exactly
        when its image, of length r - dim S_e, lies outside the span of the
        surviving bars' columns and of the images of the rows born before it.
    (b) A_e, C_e and the live u + w are independent, so dim S_e - dim A_e -
        dim C_e - #live rows are born: a jump with none tests no row, and
        once as many rows are left as births, all of them are born.
    (c) dim A_e (dim C_e) counts the F0 (F1) started by e and the bars
        killed by e, so step 2 runs only where that count grows.  The
        annihilators of S_e are the dual rows past dim S_e, so dim A_e =
        p - rank D0[dim S_e:], D0 the type-0 blocks of all the dual rows:
        one elimination of D0, last row first, gives it at every jump, and
        A_e is eliminated only where an F0 starts.  C_e is eliminated
        nowhere: the rows of S_e are its reduced echelon basis, and a vector
        of S_e in V1 is zero at every V0 pivot, so it combines the rows with
        a V1 pivot alone.  Cut to V1 those rows are the reduced echelon
        basis of C_e, so one list of rows is both dim C_e and C_e.  The born
        bars' u's (w's) join their span only at a jump that tests an F0
        (F1), and a full span takes no vector.

    Returns (label, columns): (u,) for F0, (w,) for F1, (u, w) for F[m, a].
    """
    F, p, q = L.field, L.p, L.q
    D0 = [n[:p] for n in L._dual]  # the type-0 blocks of the dual rows
    rank_from = [0] * (L.rank + 1)  # rank_from[k]: the rank of D0[k:]
    tail = linalg.Echelon(F)
    for k in range(L.rank - 1, -1, -1):
        rank_from[k] = rank_from[k + 1] + (len(tail) < p and tail.add(D0[k]))
    pieces = []
    span0, span1 = linalg.Echelon(F), linalg.Echelon(F)  # the u's and w's fed so far
    us, ws = [], []  # the born bars' u's and w's not yet fed
    live = []  # (birth, u, w), elder first
    dead = starts0 = starts1 = 0  # bars killed, F0 and F1 started so far
    for e, rows in L.steps:
        ann0 = D0[len(rows):]  # S_e & V0 is where these vanish
        images = [linalg.mat_vec(F, ann0, u) for _, u, _ in live]  # the live bars' columns
        # Every live u lies in A_e, so each bar dies on its own with no
        # elimination, as at the top jump, where ann0 is empty.  Kept because
        # taking it out made krull-schmidt 18 % slower (CHANGES.md, the
        # fast-path table).
        if not any(map(any, images)):
            pieces += [(rank_two_label(e - s, -s), (u, w)) for s, u, w in reversed(live)]
            dead += len(live)
            live, images = [], []
        else:
            kills, dying = linalg.elder_kills(F, images)
            uw = linalg.mm(F, kills, [u + w for _, u, w in live], len(live), p + q)
            for row, j in zip(uw[::-1], dying[::-1]):  # youngest first
                s = live[j][0]
                pieces.append((rank_two_label(e - s, -s), (row[:p], row[p:])))
            dead += len(dying)
            live = [bar for j, bar in enumerate(live) if j not in dying]
            images = [v for j, v in enumerate(images) if j not in dying]
        dim_a = p - rank_from[len(rows)]
        c_e = [v[p:] for v in rows if not any(v[:p])]  # the rref of C_e
        if dim_a > starts0 + dead:
            _feed(span0, us, p)
            a_e = linalg.nullspace(F, ann0, ncols=p)
            new = [(rank_one_label(0, -e), (u,)) for u in a_e if span0.add(u)]
            starts0 += len(new)
            pieces += new
        if len(c_e) > starts1 + dead:
            _feed(span1, ws, q)
            new = [(rank_one_label(1, -e), (w,)) for w in c_e if span1.add(w)]
            starts1 += len(new)
            pieces += new
        births = len(rows) - dim_a - len(c_e) - len(live)
        if not births:
            continue
        seen = linalg.Echelon(F)  # the survivors' columns and the born rows' images
        for v in images:
            seen.add(v)
        for k, v in enumerate(rows):
            u, w = v[:p], v[p:]
            if births == len(rows) - k or seen.add(linalg.mat_vec(F, ann0, u)):
                live.append((e, u, w))
                us.append(u)
                ws.append(w)
                births -= 1
                if not births:
                    break
    if live:
        raise DecompositionFailure("a diagonal bar is still alive at the top jump")
    return pieces


def _feed(span, pending, size) -> None:
    """Add the pending vectors to ``span`` until it has dimension ``size``,
    and empty ``pending``."""
    while pending and len(span) < size:
        span.add(pending.pop())
    pending.clear()


# ---------------------------------------------------------------------------
# rank-one filtrations


@dataclass(frozen=True)
class Filtration:
    """Chain of sublattices with rank-one subquotients.

    ``chain[t]`` is a generator list (jump, direction) in the original
    ambient coordinates spanning the t-th term; ``labels[t]`` names the
    subquotient chain[t+1]/chain[t].
    """

    chain: tuple
    labels: tuple


def filtration(X: CObject) -> Filtration:
    """The chain of sublattices S & k^t, t = 0..rank, from one canonical form.

    Canonicalizing the generators with the coordinates reversed puts each
    adapted generator's pivot at its last nonzero coordinate c, one
    generator for each c.  At every degree d the generators alive at d with
    c < t have distinct last coordinates, so they are a basis of
    S_d & k^t: ``chain[t]`` is the generators with c < t.  Projecting
    chain[t + 1] onto coordinate t leaves only the generator with c = t,
    whose image is x^jump k[x], so ``labels[t]`` is the rank-one factor of
    coordinate t's type with shift -jump.  Factor count equals the rank and
    the factor types are the ambient types, type 0 at the bottom.
    """
    if not X.is_torsion_free():
        raise NotLatticeMorphism("filtration applies to torsion-free objects")
    L = X.lattice
    rev = canonicalize(X.field, [(e, dir[::-1]) for e, dir in L.generators()], L.q, L.p)
    gens = [(e, dir[::-1]) for e, dir in rev.generators()]
    last = [max(i for i, c in enumerate(dir) if c) for _, dir in gens]
    chain = tuple(tuple(g for g, c in zip(gens, last) if c < t) for t in range(X.rank + 1))
    labels = tuple(rank_one_label(0 if c < X.p else 1, -e) for c, (e, _) in sorted(zip(last, gens)))
    return Filtration(chain, labels)
