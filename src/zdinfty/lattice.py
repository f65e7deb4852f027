"""Full-rank graded lattices inside a typed ambient space.

A lattice is an exhaustive increasing filtration of k^r by subspaces indexed
by degree: the homogeneous piece at degree d is x^d times the subspace S_d,
and S_d grows from 0 to k^r across finitely many jump degrees.  Coordinates
0..p-1 of the ambient space carry type 0, coordinates p..p+q-1 type 1.

The canonical form stores, for each jump, the cumulative subspace as a
reduced-echelon basis with pivots at the lowest coordinate indices.  Two
lattices are equal as embedded submodules exactly when their canonical forms
are identical.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from . import linalg
from .errors import DimensionMismatch, NotFullRank
from .fields import FieldSpec, check_same_field
from .linalg import Matrix, Vector


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

    @property
    def jump_list(self) -> tuple:
        """Jump degrees with multiplicity (the elementary-divisor data)."""
        out = []
        prev = 0
        for jump, basis in self.steps:
            out.extend([jump] * (len(basis) - prev))
            prev = len(basis)
        return tuple(out)

    def min_jump(self) -> int:
        return self.steps[0][0]

    def max_jump(self) -> int:
        return self.steps[-1][0]

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
        return len(self.subspace_at(d))

    @cached_property
    def _annihilators(self) -> dict:
        """Step index to the annihilator of that step, filled in on first use
        (two threads that race on a step store equal values)."""
        return {}

    def annihilator_at(self, d: int) -> Matrix:
        """Basis of the vectors u with u . v = 0 for every v in S_d (all of
        k^r below the first jump), computed once per step."""
        idx = bisect_right(self._jumps, d)
        if idx not in self._annihilators:
            basis = self.subspace_at(d)
            self._annihilators[idx] = linalg.nullspace(self.field, basis, self.rank)
        return self._annihilators[idx]

    @cached_property
    def _generators(self) -> tuple:
        out = []
        prev_pivots: set = set()
        for jump, basis in self.steps:
            pivots = _pivots(self.field, basis)
            for row, piv in zip(basis, pivots):
                if piv not in prev_pivots:
                    out.append((jump, row))
            prev_pivots = set(pivots)
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


def _pivots(F: FieldSpec, rows: Sequence) -> tuple:
    out = []
    for row in rows:
        for j, c in enumerate(row):
            if not F.is_zero(c):
                out.append(j)
                break
    return tuple(out)


def canonicalize(field: FieldSpec, gens: Iterable, p: int, q: int) -> GradedLattice:
    """Canonical form of the lattice generated by x^jump * dir over k[x].

    ``gens`` is a sequence of (jump, direction) pairs.  Raises
    DimensionMismatch if direction lengths disagree with p+q, NotFullRank if
    the directions do not span k^(p+q).
    """
    r = p + q
    gens = [(int(j), tuple(d)) for j, d in gens]
    for _, d in gens:
        if len(d) != r:
            raise DimensionMismatch(f"direction of length {len(d)}, ambient rank {r}")
    if r == 0:
        return GradedLattice(field, 0, 0, ())
    if not gens:
        raise NotFullRank("no generators for a positive-rank ambient space")
    gens.sort(key=lambda g: g[0])
    steps = []
    acc: list = []
    i = 0
    while i < len(gens):
        jump = gens[i][0]
        while i < len(gens) and gens[i][0] == jump:
            acc.append(gens[i][1])
            i += 1
        basis, _ = linalg.rref(field, acc)
        if basis and (not steps or len(basis) > len(steps[-1][1])):
            steps.append((jump, basis))
        acc = list(basis)
    if not steps or len(steps[-1][1]) != r:
        got = len(steps[-1][1]) if steps else 0
        raise NotFullRank(f"generators span a rank-{got} subspace of k^{r}")
    return GradedLattice(field, p, q, tuple(steps))


def from_filtration(field: FieldSpec, p: int, q: int, pieces: Sequence) -> GradedLattice:
    """Lattice with prescribed subspaces S_d at the given degrees.

    ``pieces`` is a list of (degree, iterable of vectors) with degrees
    ascending; between listed degrees the filtration is constant.
    """
    gens = []
    for d, vectors in pieces:
        for v in vectors:
            gens.append((d, tuple(v)))
    return canonicalize(field, gens, p, q)


def membership(L: GradedLattice, v: GradedVector) -> bool:
    """Whether the homogeneous element lies in the lattice."""
    if len(v.coords) != L.rank:
        raise DimensionMismatch(f"vector length {len(v.coords)}, ambient rank {L.rank}")
    if linalg.is_zero_vector(L.field, v.coords):
        return True
    basis = L.subspace_at(v.degree)
    return linalg.in_span(L.field, basis, _pivots(L.field, basis), v.coords)


def contains(outer: GradedLattice, inner: GradedLattice) -> bool:
    check_same_field(outer.field, inner.field)
    if (outer.p, outer.q) != (inner.p, inner.q):
        raise DimensionMismatch("lattices in different ambient spaces")
    return all(
        membership(outer, GradedVector(jump, dir)) for jump, dir in inner.generators()
    )


def lattice_sum(L1: GradedLattice, L2: GradedLattice) -> GradedLattice:
    check_same_field(L1.field, L2.field)
    if (L1.p, L1.q) != (L2.p, L2.q):
        raise DimensionMismatch("lattices in different ambient spaces")
    return canonicalize(L1.field, L1.generators() + L2.generators(), L1.p, L1.q)


def lattice_intersect(L1: GradedLattice, L2: GradedLattice) -> GradedLattice:
    check_same_field(L1.field, L2.field)
    if (L1.p, L1.q) != (L2.p, L2.q):
        raise DimensionMismatch("lattices in different ambient spaces")
    F = L1.field
    degrees = sorted({j for j, _ in L1.steps} | {j for j, _ in L2.steps})
    pieces = []
    for d in degrees:
        w = intersect_rowspaces(F, L1.subspace_at(d), L2.subspace_at(d))
        pieces.append((d, w))
    return from_filtration(F, L1.p, L1.q, pieces)


def intersect_rowspaces(F: FieldSpec, A: Sequence, B: Sequence) -> Matrix:
    """Echelon basis of (row space of A, intersected with row space of B)."""
    if not A or not B:
        return ()
    n = len(A[0])
    # a-coefficients solving sum a_i A_i - sum b_j B_j = 0
    stacked = linalg.transpose(tuple(A) + tuple(linalg.mat_scale(F, F.neg(F.one), B)))
    combos = []
    for ker in linalg.nullspace(F, stacked):
        acoef = ker[: len(A)]
        vec = [F.zero] * n
        for c, row in zip(acoef, A):
            if not F.is_zero(c):
                for j in range(n):
                    vec[j] = F.add(vec[j], F.mul(c, row[j]))
        combos.append(tuple(vec))
    return linalg.span(F, combos)


def shift_lattice(L: GradedLattice, s: int) -> GradedLattice:
    """Degree shift: jumps move from e to e - s."""
    return GradedLattice(L.field, L.p, L.q, tuple((j - s, basis) for j, basis in L.steps))


def sigma_lattice(L: GradedLattice) -> GradedLattice:
    """Swap the type-0 and type-1 coordinate blocks."""
    perm = list(range(L.p, L.p + L.q)) + list(range(L.p))
    gens = [(j, tuple(d[i] for i in perm)) for j, d in L.generators()]
    return canonicalize(L.field, gens, L.q, L.p)


def adapted_coords(L: GradedLattice, v: Sequence, degree: int):
    """Coefficients of ``v`` in the adapted generators with jump <= degree.

    Returns a list of scalars indexed like ``L.generators()`` (zero at the
    generators of larger jump), or None when ``v`` is not in S_degree.
    """
    F = L.field
    gens = L.generators()
    active = [i for i, (j, _) in enumerate(gens) if j <= degree]
    basis = tuple(gens[i][1] for i in active)
    coeffs = linalg.coords_in_basis(F, basis, v)
    if coeffs is None:
        return None
    out = [F.zero] * len(gens)
    for i, c in zip(active, coeffs):
        out[i] = c
    return out
