"""Krull-Schmidt decomposition, identification, rank-one filtrations.

Indecomposables have scalar endomorphisms here, so an object is
indecomposable exactly when its endomorphism algebra is one-dimensional.
Splitting is deterministic: a candidate indecomposable I is a summand of X
exactly when the composition pairing Hom(X, I) x Hom(I, X) -> End(I) = k is
nonzero, and the jump data of X cuts out finitely many candidates, among
them every summand.  A nonzero pairing gives an idempotent of X whose image
and kernel split it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import (
    DecompositionFailure,
    NotLatticeMorphism,
    UnrecognizedShape,
    ZdinftyError,
)
from .fields import FieldSpec
from .homext import (
    Morphism,
    add_morphisms,
    compose,
    hom_space,
    identity_morphism,
    morphism_from_parts,
    morphism_vector,
    scale_morphism,
    sum_projection,
)
from .lattice import GradedVector, canonicalize, membership
from .objects import (
    CObject,
    TorsionPart,
    direct_sum_many,
    rank_one,
    rank_two,
    torsion_cyclic,
)


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
        return rank_one_label(1 - i, a - 1)
    if label.kind == "rank_two":
        m, a = label.params
        return rank_two_label(m, a - 1)
    n, a = label.params
    return wing(n, a - 1)


# ---------------------------------------------------------------------------
# identification


def identify(X: CObject) -> IndecLabel:
    """Label an indecomposable by its lattice and torsion invariants."""
    if X.rank == 0 and len(X.torsion.summands) == 1:
        n, a = X.torsion.summands[0]
        return wing(n, a)
    if not X.torsion.is_zero() or X.is_zero():
        raise UnrecognizedShape("not a single indecomposable shape")
    L = X.lattice
    if X.rank == 1:
        return rank_one_label(0 if X.p == 1 else 1, -L.min_jump())
    if X.rank == 2 and X.p == 1 and X.q == 1:
        a = -L.min_jump()
        c0 = _pure_coordinate_degree(L, 0)
        c1 = _pure_coordinate_degree(L, 1)
        if c0 != c1:
            raise UnrecognizedShape("pure-coordinate degrees disagree")
        m = c0 + a
        if m >= 1 and sorted(L.jump_list) == [-a, m - a]:
            return rank_two_label(m, a)
    raise UnrecognizedShape(f"no classified label matches rank {X.rank}")


def _pure_coordinate_degree(L, coord: int) -> int:
    F = L.field
    e = tuple(F.one if i == coord else F.zero for i in range(L.rank))
    for d in range(L.min_jump(), L.max_jump() + 1):
        if membership(L, GradedVector(d, e)):
            return d
    raise UnrecognizedShape("pure-coordinate element missing below the top jump")


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
    """Basis and structure constants of the endomorphism algebra."""
    hs = hom_space(X, X)
    vecs = [morphism_vector(m) for m in hs.basis]
    F = X.field
    table = []
    for f in hs.basis:
        row = []
        for g in hs.basis:
            prod = morphism_vector(compose(f, g))
            coords = linalg.coords_in_basis(F, vecs, prod)
            if coords is None:
                raise ZdinftyError("endomorphism product escapes the basis")
            row.append(tuple(coords))
        table.append(tuple(row))
    return EndRing(X, hs.basis, tuple(table))


# ---------------------------------------------------------------------------
# decomposition


@dataclass(frozen=True)
class Decomposition:
    factors: tuple  # sorted IndecLabels
    iso: Morphism  # from the direct sum of the factors onto the input

    @property
    def factor_multiset(self):
        return tuple(sorted(f.sort_key() for f in self.factors))


def decompose(X: CObject) -> Decomposition:
    """Split into indecomposables with an explicit isomorphism.

    Torsion factors are read off the stored summands.  The lattice part is
    split recursively by peeling: each candidate label cut out by the jump
    data is paired against the object, and the first nonzero pairing splits
    off that candidate as a summand.  An object with a one-dimensional
    endomorphism algebra is identified and checked against its standard
    model.  Raises DecompositionFailure only if no split is found for a
    provably decomposable object (a bug signal).
    """
    F = X.field
    if X.is_zero():
        return Decomposition((), identity_morphism(X))
    pieces = []  # (label, inclusion into X)
    for idx, (n, a) in enumerate(X.torsion.summands):
        Ti = torsion_cyclic(F, n, a)
        tt = {}
        for d in range(-a, -a + n):
            col = Ti.torsion.slots_at(d).index(0)
            column_pos = X.torsion.slots_at(d).index(idx)
            mat = [[F.zero] for _ in X.torsion.slots_at(d)]
            mat[column_pos][col] = F.one
            tt[d] = tuple(map(tuple, mat))
        incl = morphism_from_parts(
            Ti, X, linalg.zeros(F, X.p, 0), linalg.zeros(F, X.q, 0), tt
        )
        pieces.append((wing(n, a), incl))

    if X.rank > 0:
        lat_obj = CObject(F, TorsionPart(()), X.lattice)
        lat_incl = morphism_from_parts(
            lat_obj, X, linalg.identity(F, X.p), linalg.identity(F, X.q)
        )
        for label, incl in _split_lattice(lat_obj):
            pieces.append((label, compose(lat_incl, incl)))

    pieces.sort(key=lambda t: t[0].sort_key())
    factors = tuple(label for label, _ in pieces)
    if not factors:
        raise ZdinftyError("decompose needs a nonzero object")
    big, embeds = direct_sum_many([label_to_object(F, lbl) for lbl in factors])
    iso = None
    for (lbl, incl), (embed, tmap) in zip(pieces, embeds):
        part = compose(incl, sum_projection(big, label_to_object(F, lbl), embed, tmap))
        iso = part if iso is None else add_morphisms(iso, part)
    if not is_isomorphism(iso, X):
        raise DecompositionFailure("assembled map is not an isomorphism")
    return Decomposition(factors, iso)


def is_isomorphism(m: Morphism, target: CObject) -> bool:
    """Whether the morphism is invertible onto the target."""
    F = m.src.field
    if m.dst != target:
        return False
    if m.src.torsion.summands != target.torsion.summands:
        return False
    if sorted(m.src.lattice.jump_list) != sorted(target.lattice.jump_list):
        return False
    if linalg.inverse(F, m.full_matrix()) is None:
        return False
    lo = m.src.torsion.min_degree()
    if lo is not None:
        for d in range(lo, m.src.torsion.max_degree() + 1):
            if linalg.inverse(F, m.tt_at(d)) is None:
                return False
    # the block matrix must map the filtration onto the filtration; with
    # equal jump multisets a containment check suffices
    full = m.full_matrix()
    for e, dir in m.src.lattice.generators():
        w = linalg.mat_vec(F, full, dir)
        if not membership(target.lattice, GradedVector(e, w)):
            return False
    return True


def _split_lattice(obj: CObject) -> list:
    """Recursive splitting of a torsion-free object.

    Returns a list of (label, inclusion morphism into obj).
    """
    if obj.rank == 0:
        return []
    F = obj.field
    if hom_space(obj, obj).dim == 1:
        label = identify(obj)
        std = label_to_object(F, label)
        maps = hom_space(std, obj).basis
        if len(maps) != 1 or not is_isomorphism(maps[0], obj):
            raise DecompositionFailure(
                "identified factor is not isomorphic to its standard model"
            )
        return [(label, maps[0])]

    split = _peel_split(obj)
    if split is None:
        raise DecompositionFailure(
            "no splitting found for a lattice object with dim End > 1"
        )
    out = []
    for sub, incl in split:
        for label, inner in _split_lattice(sub):
            out.append((label, compose(incl, inner)))
    return out


def _subobject(obj: CObject, basis_rows):
    """Sub-object on a type-split invariant subspace with its inclusion."""
    F = obj.field
    # coordinates are read off at pivots, which needs a reduced basis
    basis_rows = linalg.rref(F, basis_rows)[0]
    rows0 = [v for v in basis_rows if _pivot(F, v) < obj.p]
    rows1 = [v for v in basis_rows if _pivot(F, v) >= obj.p]
    if len(rows0) + len(rows1) != len(basis_rows):
        raise ZdinftyError("subspace is not type-split")
    cols = list(rows0) + list(rows1)
    p_w, q_w = len(rows0), len(rows1)
    # coordinates in the echelon basis are read off at the pivots
    pivots = [_pivot(F, v) for v in cols]
    pieces = []
    from .lattice import intersect_rowspaces

    for d, _ in obj.lattice.steps:
        inter = intersect_rowspaces(F, obj.lattice.subspace_at(d), cols)
        converted = [tuple(v[piv] for piv in pivots) for v in inter]
        pieces.append((d, converted))
    sub_lat = canonicalize(
        F, [(d, v) for d, vs in pieces for v in vs], p_w, q_w
    )
    sub = CObject(F, TorsionPart(()), sub_lat)
    embed = linalg.transpose(cols)  # obj.rank x (p_w + q_w)
    a00 = tuple(tuple(embed[i][k] for k in range(p_w)) for i in range(obj.p))
    a11 = tuple(
        tuple(embed[obj.p + i][p_w + k] for k in range(q_w)) for i in range(obj.q)
    )
    incl = morphism_from_parts(sub, obj, a00, a11)
    return sub, incl


def _pivot(F, v):
    for i, c in enumerate(v):
        if not F.is_zero(c):
            return i
    raise ZdinftyError("zero vector in a basis")


def _peel_split(obj: CObject):
    """Split off the first candidate indecomposable that is a summand.

    Every summand's jumps are jumps of obj, so the candidates are F0/F1 at
    each jump and F[e2 - e1, -e1] for each pair of jumps.  Rank-two
    candidates go first: a rank-one candidate that is not a summand still
    costs two Hom spaces, and rank-two sums have many of them.
    """
    F = obj.field
    jumps = sorted(set(obj.lattice.jump_list))
    candidates = []
    if obj.p > 0 and obj.q > 0:
        for i, e1 in enumerate(jumps):
            for e2 in jumps[i + 1:]:
                candidates.append(rank_two_label(e2 - e1, -e1))
    for e in jumps:
        if obj.p > 0:
            candidates.append(rank_one_label(0, -e))
        if obj.q > 0:
            candidates.append(rank_one_label(1, -e))
    for label in candidates:
        I = label_to_object(F, label)
        maps_in = hom_space(I, obj).basis
        maps_out = hom_space(obj, I).basis
        for f in maps_in:
            for g in maps_out:
                h = compose(g, f)
                lam = _scalar_of_endo(h)
                if lam is None or F.is_zero(lam):
                    continue
                e = compose(f, scale_morphism(F.inv(lam), g)).full_matrix()
                kernel = linalg.nullspace(F, e)
                image = linalg.span(F, linalg.transpose(e))
                if 0 < len(image) < obj.rank:
                    return (_subobject(obj, image), _subobject(obj, kernel))
    return None


def _scalar_of_endo(h: Morphism):
    """The scalar if the endomorphism of a scalar-endo object is one."""
    F = h.src.field
    if h.src.p > 0:
        return h.a00[0][0]
    if h.src.q > 0:
        return h.a11[0][0]
    return None


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
    """Peel ambient coordinates one at a time, type 1 before type 0.

    Each projection onto a coordinate has image x^c k[x], contributing a
    rank-one factor of that type with shift -c; the kernel is the next chain
    term.  Factor count equals the rank and the factor type multiset equals
    the ambient type multiset.
    """
    if not X.is_torsion_free():
        raise NotLatticeMorphism("filtration applies to torsion-free objects")
    F = X.field
    # active data: list of (jump, vector) generating the current term,
    # in the original ambient; coordinates processed from the last down
    current = list(X.lattice.generators())
    coords = list(range(X.rank))
    labels_topdown = []
    chain = [tuple(current)]
    while coords:
        c = coords[-1]
        # image degree: least jump whose generators have a nonzero c-entry
        # once expressed degreewise; scan the degreewise spans
        cdeg = _projection_min_degree(F, current, c)
        ctype = 0 if c < X.p else 1
        labels_topdown.append(rank_one_label(ctype, -cdeg))
        current = _coordinate_kernel(F, current, c)
        coords.pop()
        chain.append(tuple(current))
    chain.reverse()  # ascending: 0 = chain[0] up to the full lattice
    labels = tuple(reversed(labels_topdown))
    return Filtration(tuple(chain), labels)


def _projection_min_degree(F, gens, c):
    best = None
    for jump, dir in gens:
        if not F.is_zero(dir[c]) and (best is None or jump < best):
            best = jump
    if best is None:
        raise ZdinftyError("projection of a full-rank lattice vanished")
    return best


def _coordinate_kernel(F, gens, c):
    """Generators of the intersection with the hyperplane coordinate c = 0."""
    # degreewise: at each jump, the span of all generators alive there meets
    # the hyperplane; generators of the kernel lattice
    jumps = sorted({j for j, _ in gens})
    out = []
    for d in jumps:
        alive = [dir for j, dir in gens if j <= d]
        span = linalg.span(F, alive)
        # combinations of the degree-d span with vanishing c-entry
        c_entries = (tuple(row[c] for row in span),)
        for combo in linalg.nullspace(F, c_entries, ncols=len(span)):
            vec = [F.zero] * len(gens[0][1])
            for coef, row in zip(combo, span):
                if not F.is_zero(coef):
                    for i in range(len(vec)):
                        vec[i] = F.add(vec[i], F.mul(coef, row[i]))
            out.append((d, tuple(vec)))
    return _dedupe_generators(F, out)


def _dedupe_generators(F, gens):
    """Keep a minimal generating family: drop directions already generated."""
    gens = sorted(gens, key=lambda g: g[0])
    kept = []
    for jump, dir in gens:
        alive = [d for j, d in kept if j <= jump]
        basis, pivots = linalg.rref(F, alive) if alive else ((), ())
        if not linalg.in_span(F, basis, pivots, dir):
            kept.append((jump, dir))
    return kept
