"""Krull-Schmidt decomposition, identification, rank-one filtrations.

Splitting is deterministic and solves no Hom space.  Torsion summands are
stored.  A torsion-free object is a filtration S_d of V0 + V1, and by
Goursat's lemma its summands are read off the persistence module
B_d / A_d, where A_d = S_d & V0 and B_d = pi0(S_d): each bar [-a, m - a) is
an F[m, a], and the lines of A_d and C_d = S_d & V1 left over by the bars'
deaths are the F0[a] and F1[a].  One elder-rule sweep over the jumps finds
the bars and a type-split basis adapted to them, which is the isomorphism
from the direct sum of the factors (Zomorodian and Carlsson, "Computing
Persistent Homology", 2005).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

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
    compose,
    hom_space,
    identity_morphism,
    morphism_from_parts,
    morphism_vector,
)
from .lattice import GradedVector, membership
from .objects import (
    CObject,
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
        label = rank_one_label(1 - i, a)
    return shift_label(label, -1)


def shift_label(label: IndecLabel, s: int) -> IndecLabel:
    """The degree shift X(s) on labels: every kind moves its a by s."""
    size, a = label.params
    return IndecLabel(label.kind, (size, a + s))


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
    """The least degree d with the coordinate vector in S_d: a jump, since
    S_d only changes at the jumps."""
    F = L.field
    e = tuple(F.one if i == coord else F.zero for i in range(L.rank))
    for d, _ in L.steps:
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
    split by one elder-rule sweep over its jumps (``_lattice_pieces``), which
    also yields a type-split basis of the ambient space adapted to the
    factors.  The isomorphism from the direct sum of the factors places each
    basis vector at its summand's coordinate and is certified invertible
    onto X.  No Hom space is solved.  Raises DecompositionFailure only if the
    sweep or the certificate fails (a bug signal).
    """
    F = X.field
    if X.is_zero():
        return Decomposition((), identity_morphism(X))
    pieces = [(wing(n, a), idx) for idx, (n, a) in enumerate(X.torsion.summands)]
    pieces += _lattice_pieces(X.lattice)
    pieces.sort(key=lambda t: t[0].sort_key())
    factors = tuple(label for label, _ in pieces)
    big, embeds = direct_sum_many([label_to_object(F, lbl) for lbl in factors])
    cols0, cols1 = [None] * big.p, [None] * big.q
    ones = []  # (summand of X, summand of big) for each wing
    for (label, part), (embed, tmap) in zip(pieces, embeds):
        if label.kind == "wing":
            ones.append((part, tmap[0]))
            continue
        for k, col in enumerate(part):
            i = next(i for i, row in enumerate(embed) if not F.is_zero(row[k]))
            if i < big.p:
                cols0[i] = col
            else:
                cols1[i - big.p] = col
    iso = morphism_from_parts(
        big,
        X,
        linalg.transpose(cols0),
        linalg.transpose(cols1),
        linalg.unit_matrix(F, len(X.torsion.summands), len(big.torsion.summands), ones),
    )
    if not is_isomorphism(iso, X):
        raise DecompositionFailure("assembled map is not an isomorphism")
    return Decomposition(factors, iso)


def is_isomorphism(m: Morphism, target: CObject) -> bool:
    """Whether the morphism is invertible onto the target.

    The lattice part is the block-diagonal matrix ``full_matrix()`` with
    diagonal blocks ``m.a00`` and ``m.a11``, and a block-diagonal matrix is
    invertible iff each diagonal block is square and invertible: so the
    source and target need the same (p, q), and each block full rank.

    The torsion part is invertible in every degree exactly when the one
    matrix ``m.tt`` is: with the source and target summands equal, order
    them by (birth, death).  A compatible pair (k, i) has k born no later
    and dead no later than i, so ``m.tt`` is block upper triangular with one
    diagonal block per group of equal summands, and each ``tt_at(d)`` is the
    principal submatrix on the groups alive at d.  Every group is alive
    somewhere, so all the ``tt_at(d)`` are invertible iff all the diagonal
    blocks are, iff ``m.tt`` is.
    """
    F = m.src.field
    if m.dst != target:
        return False
    if m.src.torsion.summands != target.torsion.summands:
        return False
    if sorted(m.src.lattice.jump_list) != sorted(target.lattice.jump_list):
        return False
    if (m.src.p, m.src.q) != (target.p, target.q):
        return False
    n = len(target.torsion.summands)
    for block, size in ((m.a00, target.p), (m.a11, target.q), (m.tt, n)):
        if len(linalg.rref(F, block)[0]) != size:
            return False
    # the block matrix must map the filtration onto the filtration; with
    # equal jump multisets a containment check suffices
    full = m.full_matrix()
    for e, dir in m.src.lattice.generators():
        w = linalg.mat_vec(F, full, dir)
        if not membership(target.lattice, GradedVector(e, w)):
            return False
    return True


def _lattice_pieces(L) -> list:
    """Indecomposable summands of a torsion-free lattice, by one sweep.

    By Goursat's lemma S_d in V0 + V1 is fixed by A_d = S_d & V0, by
    C_d = S_d & V1, and by the persistence module B_d / A_d with
    B_d = pi0(S_d).  A bar [s, e) of that module is F[e - s, -s], and the
    lines of A_d (C_d) left over are F0 (F1).  The sweep keeps pure lines and
    live diagonal bars (u, w) with u + w in S_birth, and at each jump e:

    1. kills bars: every combination of live u's that lies in A_e kills the
       youngest bar in it, whose (u, w) becomes that combination of its own
       and its elders' vectors, so u lies in A_e and u + w in S_birth;
    2. starts F0[-e] (F1[-e]) on the vectors of A_e (C_e) outside the span
       of the u's (w's) so far;
    3. starts diagonal bars on the vectors of S_e outside A_e + C_e and the
       live u + w.

    Returns (label, columns): (u,) for F0, (w,) for F1, (u, w) for F[m, a].
    """
    F, p, q = L.field, L.p, L.q
    zero0, zero1 = (F.zero,) * p, (F.zero,) * q
    pieces = []
    span0, span1 = _Span(F), _Span(F)  # every u and every w so far
    live = []  # (birth, u, w), elder first
    for e, rows in L.steps:
        ann = L.annihilator_at(e)  # S_e is where these vanish
        ann0 = tuple(n[:p] for n in ann)
        ann1 = tuple(n[p:] for n in ann)
        if live:
            young = live[::-1]
            U = linalg.transpose([bar[1] for bar in young])
            W = linalg.transpose([bar[2] for bar in young])
            in_a = linalg.mm(F, ann0, U, p, len(young))
            kills, pivots = linalg.rref(F, linalg.nullspace(F, in_a, ncols=len(young)))
            for row, piv in zip(kills, pivots):
                s = young[piv][0]
                u, w = linalg.mat_vec(F, U, row), linalg.mat_vec(F, W, row)
                pieces.append((rank_two_label(e - s, -s), (u, w)))
            live = [bar for j, bar in enumerate(young) if j not in pivots][::-1]
        a_e = linalg.nullspace(F, ann0, ncols=p)
        c_e = linalg.nullspace(F, ann1, ncols=q)
        pieces += [(rank_one_label(0, -e), (u,)) for u in a_e if span0.add(u)]
        pieces += [(rank_one_label(1, -e), (w,)) for w in c_e if span1.add(w)]
        span = _Span(F)
        for v in [u + zero1 for u in a_e] + [zero0 + w for w in c_e]:
            span.add(v)
        for _, u, w in live:
            span.add(u + w)
        for v in rows:
            if span.add(v):
                live.append((e, v[:p], v[p:]))
                span0.add(v[:p])
                span1.add(v[p:])
    if live:
        raise DecompositionFailure("a diagonal bar is still alive at the top jump")
    return pieces


class _Span:
    """A growing subspace, kept as a semi-echelon basis in insertion order.

    The rows are int lists, as in ``linalg.rref``: over Q each row is a
    primitive integer multiple of its vector, and a new vector is reduced by
    cross-multiplying with each pivot row; over F_p each row is reduced mod p
    with its pivot entry scaled to 1.  A row only stands for the line it
    spans, so which vectors are new is what reduced rows of exact rationals
    (ints where integral, Fractions elsewhere) would give.
    """

    def __init__(self, F):
        self.p, self.rows = F.p, []  # (pivot, row)

    def add(self, v) -> bool:
        """Add v; returns whether it was outside the span."""
        p = self.p
        w = list(v) if p else linalg._integer_row(v)
        for piv, row in self.rows:
            c = w[piv]
            if not c:
                continue
            if p:
                w = [(a - c * b) % p for a, b in zip(w, row)]
            else:
                d = row[piv]
                w = [d * a - c * b for a, b in zip(w, row)]
                g = gcd(*w)
                if g > 1:
                    w = [a // g for a in w]
        piv = next((i for i, c in enumerate(w) if c), None)
        if piv is None:
            return False
        if p:
            inv = pow(w[piv], p - 2, p)
            w = [a * inv % p for a in w]
        self.rows.append((piv, w))
        return True


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
        combos = linalg.nullspace(F, c_entries, ncols=len(span))
        out += [(d, vec) for vec in linalg.mm(F, combos, span, len(span), len(gens[0][1]))]
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
