"""Reference Krull-Schmidt splitting with Fraction rows and canonicalized sums.

This is the computation that ``decomp.decompose`` and
``objects.direct_sum_many`` replaced: the elder-rule sweep keeps its spans as
Fraction rows reduced row by row (``oracle_membership.reduce_against``),
every direct sum is the canonical form of the embedded generators of its
inputs, and the certificate inverts the whole lattice matrix and the
torsion matrix.  Each step's annihilator is a nullspace of its echelon
basis and membership reduces against that basis, not the inverse generator
matrix.  The sweep itself is unchanged, so its pieces, and hence the
factors and the isomorphism, must agree with ``decompose`` entry for entry.

``nullspace_sweep_pieces`` and ``pieces_certified`` are the sweep and the
certificate as they were before dim A_e was read off the ranks of the dual
rows: the sweep takes the nullspace of ann0 at every jump and feeds every
born bar to the u and w spans, and the certificate tests each image with
``lattice.membership``.  Both sweeps put their nullspace C_e in reduced
echelon form, the unique basis that ``decomp`` reads off the rows of S_e
in V1, so the F1 columns agree too.
"""

from zdinfty import linalg
from zdinfty.decomp import label_to_object, rank_one_label, rank_two_label, wing
from zdinfty.errors import DecompositionFailure
from zdinfty.homext import morphism_from_parts
from zdinfty.lattice import GradedLattice, GradedVector, canonicalize, membership
from zdinfty.objects import CObject, TorsionPart, rank_one, rank_two, torsion_cyclic

from oracle_membership import reduce_against, step_membership, vec_scale


def random_invertible(F, rng, n):
    while True:
        M = tuple(tuple(F.of_int(rng.randint(-2, 2)) for _ in range(n)) for _ in range(n))
        if linalg.inverse(F, M) is not None:
            return M


def conjugated_sum(F, rng, shape):
    """(X, label strings): a sum of r2 rank-two, t torsion and r1 rank-one
    summands, its lattice conjugated by random type-diagonal invertible
    matrices with entries in [-2, 2], drawn as the krull-schmidt benchmark
    draws them."""
    r2, t, r1 = shape
    labels, parts = [], []
    for _ in range(r2):
        m, a = rng.randint(1, 3), rng.randint(-2, 2)
        labels.append(f"F[{m},{a}]")
        parts.append(rank_two(F, m, a))
    for _ in range(t):
        n, a = rng.randint(1, 3), rng.randint(-2, 2)
        labels.append(f"T[{n},{a}]")
        parts.append(torsion_cyclic(F, n, a))
    for _ in range(r1):
        i, a = rng.randint(0, 1), rng.randint(-2, 2)
        labels.append(f"F{i}[{a}]")
        parts.append(rank_one(F, i, a))
    X = direct_sum_many(parts)[0]
    u0 = random_invertible(F, rng, X.p) if X.p else ()
    u1 = random_invertible(F, rng, X.q) if X.q else ()
    if X.rank:
        gens = []
        for e, d in X.lattice.generators():
            top = linalg.mat_vec(F, u0, d[: X.p]) if X.p else ()
            bot = linalg.mat_vec(F, u1, d[X.p:]) if X.q else ()
            gens.append((e, tuple(top) + tuple(bot)))
        X = CObject(F, X.torsion, canonicalize(F, gens, X.p, X.q))
    return X, sorted(labels)


def _embedding(F, r, place, rank):
    """The r x rank matrix with a one at (place[k], k)."""
    return tuple(
        tuple(F.one if place[k] == i else F.zero for k in range(rank)) for i in range(r)
    )


def lattice_direct_sum(L1, L2):
    """Orthogonal sum of two lattices; returns (sum, embed1, embed2).

    The ambient coordinates are ordered type-0 of L1, type-0 of L2, type-1
    of L1, type-1 of L2, and the sum is the canonical form of the embedded
    generators of both.
    """
    F = L1.field
    p, q = L1.p + L2.p, L1.q + L2.q
    r = p + q
    e1 = _embedding(F, r, list(range(L1.p)) + list(range(p, p + L1.q)), L1.rank)
    e2 = _embedding(
        F, r, list(range(L1.p, p)) + list(range(p + L1.q, r)), L2.rank
    )
    gens = [(j, linalg.mat_vec(F, e1, d)) for j, d in L1.generators()]
    gens += [(j, linalg.mat_vec(F, e2, d)) for j, d in L2.generators()]
    if r == 0:
        return GradedLattice(F, 0, 0, ()), e1, e2
    return canonicalize(F, gens, p, q), e1, e2


def sum_places(objs):
    """(p, q, torsion, per-input (place, torsion index map)) of the direct
    sum, each place listing the coordinates of the sum an input's ambient
    coordinates land on."""
    p = sum(X.p for X in objs)
    merged = sorted(
        ((s, t, i) for t, X in enumerate(objs) for i, s in enumerate(X.torsion.summands)),
        key=lambda m: m[0],
    )
    tmaps = [{} for _ in objs]
    for new_idx, (_, t, i) in enumerate(merged):
        tmaps[t][i] = new_idx
    layout = []
    p_off, q_off = 0, p
    for X, tmap in zip(objs, tmaps):
        layout.append((tuple(range(p_off, p_off + X.p)) + tuple(range(q_off, q_off + X.q)), tmap))
        p_off, q_off = p_off + X.p, q_off + X.q
    return p, q_off - p, TorsionPart(tuple(s for s, _, _ in merged)), layout


def direct_sum_many(objs):
    """The direct sum of ``objects.direct_sum_many`` with its layout, the
    lattice canonicalized from the generators of every input embedded by the
    unit matrix of its place."""
    F = objs[0].field
    p, q, torsion, layout = sum_places(objs)
    gens = []
    for X, (place, _) in zip(objs, layout):
        embed = _embedding(F, p + q, place, X.rank)
        gens += [(jump, linalg.mat_vec(F, embed, dir)) for jump, dir in X.lattice.generators()]
    return CObject(F, torsion, canonicalize(F, gens, p, q)), layout


class _Span:
    """A growing subspace as Fraction (or mod-p) rows with pivot entry 1."""

    def __init__(self, F):
        self.F, self.rows, self.pivots = F, [], []

    def add(self, v) -> bool:
        F = self.F
        w = reduce_against(F, self.rows, self.pivots, v)
        piv = next((i for i, c in enumerate(w) if not F.is_zero(c)), None)
        if piv is None:
            return False
        self.rows.append(vec_scale(F, F.inv(w[piv]), w))
        self.pivots.append(piv)
        return True


def lattice_pieces(L) -> list:
    """The elder-rule sweep of ``decomp._lattice_pieces`` on Fraction spans."""
    F, p, q = L.field, L.p, L.q
    zero0, zero1 = (F.zero,) * p, (F.zero,) * q
    pieces = []
    span0, span1 = _Span(F), _Span(F)
    live = []  # (birth, u, w), elder first
    for e, rows in L.steps:
        ann = linalg.nullspace(F, rows, L.rank)
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
        c_e = linalg.rref(F, linalg.nullspace(F, ann1, ncols=q))[0]
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


def is_isomorphism(m, target) -> bool:
    """The certificate by inverting the whole lattice matrix and ``m.tt``."""
    F = m.src.field
    if m.dst != target:
        return False
    if m.src.torsion.summands != target.torsion.summands:
        return False
    if sorted(m.src.lattice.jump_list) != sorted(target.lattice.jump_list):
        return False
    full = m.full_matrix()
    if linalg.inverse(F, full) is None or linalg.inverse(F, m.tt) is None:
        return False
    return all(
        step_membership(target.lattice, GradedVector(e, linalg.mat_vec(F, full, dir)))
        for e, dir in m.src.lattice.generators()
    )


def decompose(X):
    """(sorted factor labels, certified isomorphism from their sum onto X)
    for a nonzero X."""
    F = X.field
    pieces = [(wing(n, a), idx) for idx, (n, a) in enumerate(X.torsion.summands)]
    pieces += lattice_pieces(X.lattice)
    pieces.sort(key=lambda t: t[0].sort_key())
    factors = tuple(label for label, _ in pieces)
    big, layout = direct_sum_many([label_to_object(F, lbl) for lbl in factors])
    cols0, cols1 = [None] * big.p, [None] * big.q
    ones = []
    for (label, part), (place, tmap) in zip(pieces, layout):
        if label.kind == "wing":
            ones.append((part, tmap[0]))
            continue
        embed = _embedding(F, big.rank, place, len(place))
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
    return factors, iso


def factor_multiset(dec) -> tuple:
    """The sort keys of a ``Decomposition``'s factors, sorted."""
    return tuple(sorted(f.sort_key() for f in dec.factors))


def pieces_certified(X, pieces) -> bool:
    """The certificate of ``decomp.pieces_certified`` on ``membership_conditions``."""
    zero0, zero1 = (X.field.zero,) * X.p, (X.field.zero,) * X.q
    summands, jumps, us, ws, named, images = [], [], [], [], set(), []
    for label, part in pieces:
        if label.kind == "wing":
            summands.append(label.params)
            named.add(part)
            continue
        a = label.params[1]
        jumps.append(-a)
        if label.kind == "rank_two":
            m, (u, w) = label.params[0], part
            us.append(u)
            ws.append(w)
            jumps.append(m - a)
            images += [(-a, u + w), (m - a, zero0 + w)]
        elif label.params[0] == 0:
            us.append(part[0])
            images.append((-a, part[0] + zero1))
        else:
            ws.append(part[0])
            images.append((-a, zero0 + part[0]))
    return membership_conditions(
        X, tuple(sorted(summands)), jumps, (len(us), len(ws)), (us, ws), len(named), images
    )


def membership_conditions(target, summands, jumps, pq, blocks, tt_rank, images) -> bool:
    """The conditions of ``decomp._isomorphism_conditions``, each image
    tested by ``lattice.membership`` on a ``GradedVector``."""
    F = target.field
    if summands != target.torsion.summands:
        return False
    if sorted(jumps) != sorted(target.lattice.jump_list):
        return False
    if pq != (target.p, target.q) or tt_rank != len(summands):
        return False
    for block, size in zip(blocks, pq):
        if linalg.rank(F, block) != size:
            return False
    return all(membership(target.lattice, GradedVector(e, v)) for e, v in images)



def nullspace_sweep_pieces(L) -> list:
    """The sweep of ``decomp._lattice_pieces`` taking the nullspace of ann0
    at every jump for dim A_e, and feeding each born bar's u and w to the
    spans as it is born."""
    F, p, q = L.field, L.p, L.q
    pieces = []
    span0, span1 = linalg.Echelon(F), linalg.Echelon(F)  # every u and every w so far
    live = []  # (birth, u, w), elder first
    dead = starts0 = starts1 = 0  # bars killed, F0 and F1 started so far
    for e, rows in L.steps:
        ann = L.annihilator_at(e)  # S_e is where these vanish
        ann0 = [n[:p] for n in ann]
        images = [linalg.mat_vec(F, ann0, u) for _, u, _ in live]  # the live bars' columns
        if not any(map(any, images)):  # every live u lies in A_e
            pieces += [(rank_two_label(e - s, -s), (u, w)) for s, u, w in reversed(live)]
            dead += len(live)
            live, images = [], []
        else:
            kills, dying = linalg.elder_kills(F, images)
            U = linalg.transpose([bar[1] for bar in live])
            W = linalg.transpose([bar[2] for bar in live])
            for row, j in zip(kills[::-1], dying[::-1]):  # youngest first
                s = live[j][0]
                u, w = linalg.mat_vec(F, U, row), linalg.mat_vec(F, W, row)
                pieces.append((rank_two_label(e - s, -s), (u, w)))
            dead += len(dying)
            live = [bar for j, bar in enumerate(live) if j not in dying]
            images = [v for j, v in enumerate(images) if j not in dying]
        a_e = linalg.nullspace(F, ann0, ncols=p)
        dim_c = sum(not any(v[:p]) for v in rows)  # the rows in V1 are a basis of C_e
        if len(a_e) > starts0 + dead:
            new = [(rank_one_label(0, -e), (u,)) for u in a_e if span0.add(u)]
            starts0 += len(new)
            pieces += new
        if dim_c > starts1 + dead:
            c_e = linalg.rref(F, linalg.nullspace(F, [n[p:] for n in ann], ncols=q))[0]
            new = [(rank_one_label(1, -e), (w,)) for w in c_e if span1.add(w)]
            starts1 += len(new)
            pieces += new
        births = len(rows) - len(a_e) - dim_c - len(live)
        if not births:
            continue
        seen = linalg.Echelon(F)  # the survivors' columns and the born rows' images
        for v in images:
            seen.add(v)
        for k, v in enumerate(rows):
            u, w = v[:p], v[p:]
            if births == len(rows) - k or seen.add(linalg.mat_vec(F, ann0, u)):
                live.append((e, u, w))
                if len(span0) < p:
                    span0.add(u)
                if len(span1) < q:
                    span1.add(w)
                births -= 1
                if not births:
                    break
    if live:
        raise DecompositionFailure("a diagonal bar is still alive at the top jump")
    return pieces
