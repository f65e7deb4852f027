"""Lattice invariants of the graded two-branch singularity correspondence.

The index-m ring sits inside two polynomial branches as the pairs (f, g)
with f congruent to g modulo x^m; it is generated by u = (x, x) and
v = (x^m, 0).  A torsion-free object is a module over this ring exactly when
its lattice is stable under v's action (x^m on type-0 coordinates, zero on
type-1), and every morphism becomes linear over the subring once the index
of its endpoints is reached.  The module computes the least such index
(``singularity_index``) and the least index at which a morphism is linear
(``y_linearity_bound``).

Both bounds are closed forms.  v_n sends a generator x^e dir to
x^(e+n) (dir0, 0), which lies in the lattice exactly when e + n reaches
``lattice.degree_of`` (dir0, 0); so the index, and the linearity bound of a
morphism, are the largest such lag over the generators, with no search
over n.
"""

from __future__ import annotations

from .errors import NotLatticeMorphism, ZdinftyError
from .homext import Morphism
from .lattice import degree_of
from .objects import CObject

__all__ = ["singularity_index", "y_linearity_bound"]


def _v_image(obj: CObject, dir) -> tuple:
    """The type-0 part (dir0, 0) of a direction of ``obj``; v_n carries the
    generator x^e dir to x^(e+n) (dir0, 0)."""
    return tuple(dir[:obj.p]) + (obj.field.zero,) * obj.q


def _lag(L, e: int, v) -> int:
    """Least n >= 0 with x^(e+n) v in the lattice (0 for v = 0)."""
    d = degree_of(L, v)
    return 0 if d is None else max(0, d - e)


def singularity_index(X: CObject) -> int:
    """Least n with (x^n, 0) stabilizing the lattice.

    v_n sends the generator x^e dir to x^(e+n) (dir0, 0), which lies in the
    lattice once e + n reaches ``degree_of`` (dir0, 0).  So the index is the
    largest such lag over the generators, read off the canonical form; it
    is at most the jump spread.
    """
    if not X.is_torsion_free():
        raise NotLatticeMorphism("singularity index applies to torsion-free objects")
    L = X.lattice
    return max(
        (_lag(L, e, _v_image(X, dir)) for e, dir in L.generators()),
        default=0,
    )


def y_linearity_bound(f: Morphism) -> int:
    """Least n making the morphism linear over the index-n ring.

    On each source generator x^e dir, v_n must keep it in the source and
    its image (a00 dir0, 0) in the target, which holds from the lag of each
    (as in ``singularity_index``) on; and applying the map must commute with
    v_n in the localization, which does not depend on n and is checked once.
    """
    X, Y = f.src, f.dst
    if not (X.is_torsion_free() and Y.is_torsion_free()):
        raise NotLatticeMorphism("linearity bound applies between torsion-free objects")
    bound = 0
    for e, dir in X.lattice.generators():
        v_gen = _v_image(X, dir)
        v_image = _v_image(Y, f.apply(dir))
        if f.apply(v_gen) != v_image:
            raise ZdinftyError("the morphism does not commute with v")
        bound = max(bound, _lag(X.lattice, e, v_gen), _lag(Y.lattice, e, v_image))
    return bound
