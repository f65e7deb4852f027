"""Reference invariants by search and solve.

These are the library's computations from before it read them off the
canonical form: ``filtration`` peels one ambient coordinate at a time, the
last first, with a nullspace per jump and an rref per generator;
``singularity_index`` and ``y_linearity_bound`` try n = 0, 1, 2, ... with a
membership test per generator; and coordinates in a Hom or Ext basis, and
with them ``end_ring``, come from one ``coords_in_basis`` solve per
vector.
"""

from __future__ import annotations

from zdinfty import linalg
from zdinfty.decomp import Filtration, rank_one_label
from zdinfty.errors import NotLatticeMorphism, ZdinftyError
from zdinfty.homext import compose, hom_space, morphism_vector
from zdinfty.lattice import GradedVector

from oracle_membership import coords_in_basis, in_span, step_membership
from oracle_slots import max_jump


# ---------------------------------------------------------------------------
# filtration by peeling


def filtration(X) -> Filtration:
    if not X.is_torsion_free():
        raise NotLatticeMorphism("filtration applies to torsion-free objects")
    F = X.field
    current = list(X.lattice.generators())
    labels_topdown = []
    chain = [tuple(current)]
    for c in reversed(range(X.rank)):
        labels_topdown.append(rank_one_label(0 if c < X.p else 1, -_projection_min_degree(F, current, c)))
        current = _coordinate_kernel(F, current, c)
        chain.append(tuple(current))
    return Filtration(tuple(reversed(chain)), tuple(reversed(labels_topdown)))


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
    out = []
    for d in sorted({j for j, _ in gens}):
        span = linalg.rref(F, [dir for j, dir in gens if j <= d])[0]
        combos = linalg.nullspace(F, (tuple(row[c] for row in span),), ncols=len(span))
        out += [(d, vec) for vec in linalg.mm(F, combos, span, len(span), len(gens[0][1]))]
    return _dedupe_generators(F, out)


def _dedupe_generators(F, gens):
    """Keep a minimal generating family: drop directions already generated."""
    kept = []
    for jump, dir in sorted(gens, key=lambda g: g[0]):
        alive = [d for j, d in kept if j <= jump]
        basis, pivots = linalg.rref(F, alive) if alive else ((), ())
        if not in_span(F, basis, pivots, dir):
            kept.append((jump, dir))
    return kept


# ---------------------------------------------------------------------------
# index and linearity bound by search over n


def _v_image(F, obj, e, dir, n):
    return GradedVector(e + n, tuple(dir[i] if i < obj.p else F.zero for i in range(obj.rank)))


def singularity_index(X) -> int:
    if not X.is_torsion_free():
        raise NotLatticeMorphism("singularity index applies to torsion-free objects")
    F = X.field
    if X.rank == 0:
        return 0
    gens = X.lattice.generators()
    spread = max_jump(X.lattice) - X.lattice.jump_list[0]
    for n in range(0, spread + 2):
        if all(step_membership(X.lattice, _v_image(F, X, e, dir, n)) for e, dir in gens):
            return n
    raise ZdinftyError("stability bound exceeded on a full-rank lattice")


def y_linearity_bound(f, bound: int = 64) -> int:
    X, Y = f.src, f.dst
    if not (X.is_torsion_free() and Y.is_torsion_free()):
        raise NotLatticeMorphism("linearity bound applies between torsion-free objects")
    F = X.field
    full = f.full_matrix()
    for n in range(0, bound + 1):
        ok = True
        for e, dir in X.lattice.generators():
            vn_gen = _v_image(F, X, e, dir, n)
            vn_image = _v_image(F, Y, e, linalg.mat_vec(F, full, dir), n)
            if (
                not step_membership(X.lattice, vn_gen)
                or linalg.mat_vec(F, full, vn_gen.coords) != vn_image.coords
                or not step_membership(Y.lattice, vn_image)
            ):
                ok = False
                break
        if ok:
            return n
    raise ZdinftyError(f"no linearity bound within {bound}")


# ---------------------------------------------------------------------------
# coordinates by solve


def hom_coordinates(space, m):
    """Coefficients of a morphism in the Hom basis, or None off its span."""
    vecs = [morphism_vector(b) for b in space.basis]
    return coords_in_basis(space.src.field, vecs, morphism_vector(m))


def _class_vector(c):
    """A class flattened: its off-diagonal blocks, then each torsion vector."""
    return tuple(x for block in (c.h01, c.h10, c.tor) for row in block for x in row)


def ext_coordinates(space, c):
    """Coefficients of a class in the Ext basis, or None off its span."""
    vecs = [_class_vector(b) for b in space.basis]
    return coords_in_basis(space.src.field, vecs, _class_vector(c))


def end_ring_table(X) -> tuple:
    """The structure constants of End(X), one solve per product."""
    hs = hom_space(X, X)
    return tuple(tuple(hom_coordinates(hs, compose(f, g)) for g in hs.basis) for f in hs.basis)
