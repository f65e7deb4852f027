"""Full-rank graded lattices inside a typed ambient space.

A lattice is an exhaustive increasing filtration of k^r by subspaces indexed
by degree: the homogeneous piece at degree d is x^d times the subspace S_d,
and S_d grows from 0 to k^r across finitely many jump degrees.  Coordinates
0..p-1 of the ambient space carry type 0, coordinates p..p+q-1 type 1.

The canonical form stores, for each jump, the cumulative subspace as a
reduced-echelon basis with pivots at the lowest coordinate indices.  Two
lattices are equal as embedded submodules exactly when their canonical forms
are identical.

The lattice is freely generated by x^(e_j) dir_j, so its degree data have
one derivation: ``jump_list`` is the jumps e_j of the adapted generators,
ascending, and dim S_d is one bisection into it, the number of e_j <= d.
The steps keep the echelon bases of S_d for the callers that read its rows
(``subspace_at``).

The inverse G^-1 of the generator matrix answers every filtration query:
row k of G^-1 is the dual functional g*_k, and v lies in S_d exactly when
g*_k(v) = 0 for every k past dim S_d.  Those queries ask only where a g*_k
vanishes, so they read each row up to a nonzero factor: annihilators,
membership, ``degree_of``, meets and the Ext image (``homext``, a span of
outer products with the g*_k) read the dual rows ``_dual``, which over Q
are the rows of G^-1 scaled to primitive integer rows, and over F_p are
G^-1 itself.  What needs the exact coefficients of v in the generators
(``adapted_coords``, and the matrices built from generator images) reads
``generator_inverse``.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Iterable, Sequence

from . import linalg
from .errors import DimensionMismatch, NotFullRank
from .fields import FieldSpec, check_same_field
from .linalg import Matrix

__all__ = [
    "GradedLattice", "GradedVector", "canonicalize", "membership", "lattice_sum",
    "lattice_intersect",
]


@dataclass(frozen=True)
class GradedVector:
    """The homogeneous element x^degree * coords of k^r (x) k[x,x^-1]."""

    degree: int
    coords: tuple


@dataclass(frozen=True)
class GradedLattice:
    field: FieldSpec
    p: int
    q: int
    # (jump, reduced-echelon basis rows of the cumulative subspace),
    # jumps ascending, dimensions strictly increasing, final dimension p+q.
    steps: tuple

    @property
    def rank(self) -> int:
        return self.p + self.q

    @cached_property
    def jump_list(self) -> tuple:
        """Jump degrees with multiplicity (the elementary-divisor data): the
        jumps of the adapted generators, ascending, built once per lattice.
        This is the one derivation of the lattice's degree data: ``dim_at``
        bisects it, and a generator's index in it is its index in
        ``generators``."""
        return tuple(jump for jump, _ in self._generators)

    @cached_property
    def _jumps(self) -> tuple:
        return tuple(j for j, _ in self.steps)

    def subspace_at(self, d: int) -> Matrix:
        """Echelon basis rows of S_d."""
        idx = bisect_right(self._jumps, d)
        if idx == 0:
            return ()
        return self.steps[idx - 1][1]

    def dim_at(self, d: int) -> int:
        """dim S_d: the number of adapted generators with jump at most d,
        one bisection of ``jump_list`` (0 below the first jump, the rank
        from the top jump on)."""
        return bisect_right(self.jump_list, d)

    def annihilator_at(self, d: int) -> Matrix:
        """The dual functionals g*_k for k >= dim S_d, each up to a nonzero
        factor: rows of ``_dual`` whose common kernel is S_d (all of k^r
        below the first jump, none from the top jump on).  Row k is a
        multiple of ``generator_inverse`` row k, and equals it over F_p."""
        return self._dual[self.dim_at(d):]

    @cached_property
    def _generators(self) -> tuple:
        # S_d only grows, and so do its pivots: a row is a new generator
        # exactly when no earlier jump had its pivot
        out, seen = [], set()
        for jump, basis in self.steps:
            for row, piv in zip(basis, _pivots(basis)):
                if piv not in seen:
                    seen.add(piv)
                    out.append((jump, row))
        return tuple(out)

    def generators(self) -> tuple:
        """Canonical adapted generators (jump, direction), built once per lattice.

        Direction j enters the filtration at its jump; together the
        directions form a basis of k^r, so the lattice is freely generated
        over k[x] by x^jump_j * dir_j.
        """
        return self._generators

    def generator_matrix(self) -> Matrix:
        """Adapted directions as columns, ordered by (jump, pivot)."""
        gens = self.generators()
        return linalg.transpose(tuple(dir for _, dir in gens))

    @cached_property
    def generator_inverse(self) -> Matrix:
        """The inverse of ``generator_matrix``, built once per lattice.

        Row j is the dual functional g*_j: g*_j(dir_k) = 1 if j = k, else 0.
        So a constant matrix A equals the sum over j of (A dir_j) (x) g*_j.
        """
        return linalg.inverse(self.field, self.generator_matrix())

    @cached_property
    def _dual(self) -> Matrix:
        """The rows of ``generator_inverse``, each up to a nonzero factor:
        over Q the primitive integer row (so the filtration queries multiply
        ints, not Fractions), over F_p the same tuple."""
        if self.field.p:
            return self.generator_inverse
        return tuple(tuple(linalg._integer_row(g)) for g in self.generator_inverse)


def _pivots(rows: Sequence) -> tuple:
    out = []
    for row in rows:
        for j, c in enumerate(row):
            if c:
                out.append(j)
                break
    return tuple(out)


def canonicalize(field: FieldSpec, gens: Iterable, p: int, q: int) -> GradedLattice:
    """Canonical form of the lattice generated by x^jump * dir over k[x].

    ``gens`` is a sequence of (jump, direction) pairs.  Raises
    DimensionMismatch if direction lengths disagree with p+q, NotFullRank if
    the directions do not span k^(p+q), and TypeError on a jump that is not
    an integer (``operator.index``: 0.5 is refused, not read as 0).
    """
    r = p + q
    gens = [(operator.index(j), tuple(d)) for j, d in gens]
    for _, d in gens:
        if len(d) != r:
            raise DimensionMismatch(f"direction of length {len(d)}, ambient rank {r}")
    gens.sort(key=lambda g: g[0])
    span = linalg.Echelon(field)
    steps = []
    for jump, group in groupby(gens, key=lambda g: g[0]):
        if any([span.add(d) for _, d in group]):
            steps.append((jump, span.reduced()[0]))
    if len(span) != r:
        raise NotFullRank(f"generators span a rank-{len(span)} subspace of k^{r}")
    return GradedLattice(field, p, q, tuple(steps))


def membership(L: GradedLattice, v: GradedVector) -> bool:
    """Whether the homogeneous element lies in the lattice: whether its
    adapted coordinates past ``L.dim_at(v.degree)`` vanish."""
    return not any(_dual_coords(L, v.coords, L.dim_at(v.degree)))


def lattice_sum(L1: GradedLattice, L2: GradedLattice) -> GradedLattice:
    check_same_field(L1.field, L2.field)
    if (L1.p, L1.q) != (L2.p, L2.q):
        raise DimensionMismatch("lattices in different ambient spaces")
    return canonicalize(L1.field, L1.generators() + L2.generators(), L1.p, L1.q)


def lattice_intersect(L1: GradedLattice, L2: GradedLattice) -> GradedLattice:
    check_same_field(L1.field, L2.field)
    if (L1.p, L1.q) != (L2.p, L2.q):
        raise DimensionMismatch("lattices in different ambient spaces")
    F, r = L1.field, L1.rank
    degrees = sorted({j for j, _ in L1.steps} | {j for j, _ in L2.steps})
    # S_d of the meet is where the annihilators of both S_d vanish
    annihilators = [(d, L1.annihilator_at(d) + L2.annihilator_at(d)) for d in degrees]
    gens = [(d, w) for d, ann in annihilators for w in linalg.nullspace(F, ann, r)]
    return canonicalize(F, gens, L1.p, L1.q)


def shift_lattice(L: GradedLattice, s: int) -> GradedLattice:
    """Degree shift: jumps move from e to e - s."""
    return GradedLattice(L.field, L.p, L.q, tuple((j - s, basis) for j, basis in L.steps))


def sigma_lattice(L: GradedLattice) -> GradedLattice:
    """Swap the type-0 and type-1 coordinate blocks."""
    perm = list(range(L.p, L.p + L.q)) + list(range(L.p))
    gens = [(j, tuple(d[i] for i in perm)) for j, d in L.generators()]
    return canonicalize(L.field, gens, L.q, L.p)


def adapted_coords(L: GradedLattice, v: Sequence, degree: int):
    """Coefficients of ``v`` in the adapted generators: ``generator_inverse . v``.

    Returns a list indexed like ``L.generators()``, or None when ``v`` is not
    in S_degree.  The generators are sorted by jump and form a basis, so ``v``
    lies in S_degree exactly when its coefficients past ``L.dim_at(degree)``
    vanish.  Raises DimensionMismatch when ``v`` is not of length ``L.rank``.
    """
    if len(v) != L.rank:
        raise DimensionMismatch(f"vector length {len(v)}, ambient rank {L.rank}")
    gamma = linalg.mat_vec(L.field, L.generator_inverse, v)
    return None if any(gamma[L.dim_at(degree):]) else list(gamma)


def degree_of(L: GradedLattice, v: Sequence):
    """The least jump d with ``v`` in S_d, or None when ``v`` is zero.

    The generators are sorted by jump, and S_d is spanned by those with
    jump at most d, so d is the jump of the last generator on which ``v``
    has a nonzero adapted coordinate.
    """
    gamma = _dual_coords(L, v, 0)
    last = max((k for k, c in enumerate(gamma) if c), default=None)
    return None if last is None else L.jump_list[last]


def _dual_coords(L: GradedLattice, v: Sequence, start: int) -> tuple:
    """The adapted coordinates of ``v`` from index ``start`` on, each up to
    a nonzero factor: the rows of ``L._dual`` past ``start`` applied to
    ``v``, which over Q is first scaled to an integer row.  Raises
    DimensionMismatch when ``v`` is not of length ``L.rank``."""
    if len(v) != L.rank:
        raise DimensionMismatch(f"vector length {len(v)}, ambient rank {L.rank}")
    if not L.field.p:
        v = linalg._integer_row(v)
    return linalg.mat_vec(L.field, L._dual[start:], v)
