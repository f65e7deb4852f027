"""Hom and Ext spaces with explicit bases, composition, trace, pairings.

Morphisms between torsion-free parts are constant block-diagonal matrices
preserving the lattice filtrations; the restriction functor forgets the block
constraint.  A map of graded cyclic modules is fixed by the image of the
generator, so a map T[n, a] -> T[n', a'] is one scalar times x^(a' - a).  It
is nonzero only on a compatible pair: the target is alive at the source's
birth degree (-a' <= -a <= -a' + n' - 1) and x^n kills the image
(n - a >= n' - a').  Torsion maps are therefore one scalar per compatible
pair of summands, read off the bars with no solve, and they compose by a
masked product: (g f)[k][i] is sum_j g[k][j] f[j][i] if summand k is alive
at the birth degree of summand i, and 0 otherwise.  Ext between lattices is
the cokernel of projecting the restricted Hom onto its off-diagonal blocks;
Ext out of a torsion summand is computed against the divisible cokernel of
the target's injective resolution, which degreewise is the quotient of the
target's module piece at the summand's death degree by the x-power image of
its birth degree.

Neither image needs a solve.  The source lattice is free on x^(e_j) dir_j,
so a constant matrix preserves the filtrations exactly when it sends each
dir_j into S_(e_j) of the target; the restricted Hom is therefore spanned by
the outer products s (x) g*_j, with g*_j the dual basis of the directions
(the rows of the inverse generator matrix) and s an echelon row of
S_(e_j).  The x-power map on slots is a partial identity, so its image is a
set of unit slots: the generators alive at the birth degree and the torsion
summands alive at both degrees.

Lattice-to-torsion transport has one path: a degree-d lattice element with
adapted coordinates gamma (``lattice.adapted_coords``, the inverse generator
matrix times its vector) maps to the sum of gamma_t times the stored torsion
image ``ft[t]`` of generator t, moved up from its jump to d onto the target
summands alive at both degrees (``_ft_image``).

Coordinates need no solve either.  Every Ext basis class is a one at a
free position, off the pivots or off the hit slots, so ``ExtSpace`` reads
those positions, in block widths fixed when it is built, and builds its
classes only on demand.  ``HomSpace`` likewise spans by positions: the
lattice maps as (a00, a11) pairs, the compatible torsion pairs, and the
target torsion slots at each source generator's jump.

The lattice block layout has one owner, ``_flatten``, ``_split``, ``_cut``
and ``_full``: a map's (a00, a11) are the type-0 rows on the type-0
columns, then the type-1 rows on the type-1 columns, each row by row, and
a class's (h01, h10) are the same blocks of a map into the target with its
two types swapped, so Serre duality pairs the blocks of Ext(Y, VX) with
those of Hom(X, Y) transposed, which ``_gram`` and ``serre_check``'s index
arithmetic read.

One counting path gives both dimensions: ``_hom_count`` and ``_ext_count``
eliminate the Hom constraints or the Ext lattice image once and return
that echelon with the dimension, the lattice part counted from it (the
unknowns less the rank, the off-diagonal cells less the pivots) and the
torsion part as a count of bars.  A summand T[n, a] is the bar
[b, d) = [-a, n - a), the degrees it is alive in:

- Hom: summand i maps onto summand k exactly when b_k <= b_i < d_k <= d_i
  (``torsion_compatible``), and a lattice generator with jump e reaches
  #{k : b_k <= e < d_k} target slots (``_hom_torsion``);
- Ext: a source bar [b, d) adds (dim S_d(Y) - dim S_b(Y))
  + #{k : b < b_k <= d < d_k}, the degree-d slots of Y that the x^(d - b)
  image of degree b misses (``_ext_torsion``).

``hom_space`` and ``ext_space`` keep the very echelon their count built,
and nothing adds to it after; the lattice maps (its kernel), the reduced
image rows, the torsion pairs, widths and hit slots are built only when
first read, and each space builds its maps or classes only when ``basis``
is read.  ``euler_form`` needs no elimination at all: the lattice parts
of Hom and Ext are the kernel and cokernel of one map, so their
difference is a count, and ``decomp.dimensions``, which the CLI's ``hom``,
``ext`` and ``euler`` read, takes both dimensions of each pair of factors
from the Hom count alone, dim Ext as dim Hom less it.  The
Serre Gram matrix selects entries of the lattice maps at the free positions
(``_gram``); its free cells are the off-diagonal positions below
``widths[0]`` off the sorted pivots ``ExtSpace.pivots``.  ``serre_check``
builds no space and no Gram: it calls the two counts, and takes the
Gram's rank from the Hom echelon's columns at the unknowns the Ext pivots
pair with (see its docstring).  So a duality check of two torsion-free
objects pays for its two eliminations and one small rank alone, one with
torsion for its bar counts alone, and neither keeps an echelon.  Every
Hom basis map is a kernel vector or a unit torsion map, with a one at its
last nonzero entry where the others vanish; ``HomSpace.coordinates`` reads
the entries there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import linalg
from .errors import (
    ComposabilityError,
    NotLatticeMorphism,
    ShapeMismatch,
    ZdinftyError,
)
from .fields import check_same_field
from .lattice import GradedLattice, GradedVector, adapted_coords, membership
from .objects import CObject, TorsionPart, module_xpower, serre_twist

__all__ = [
    "Morphism", "HomSpace", "ExtClass", "ExtSpace", "hom_space", "ext_space",
    "hom_kx_space", "yoneda_compose", "eta", "serre_gram", "serre_check", "euler_form",
    "serre_twist_morphism", "serre_twist_class",
]


# ---------------------------------------------------------------------------
# the lattice block layout of (a00, a11) and (h01, h10): see the module
# docstring.  For a class, Y's two types are swapped: h01 is Y's q type-1
# rows on X's type-0 columns, then h10 its p type-0 rows on X's type-1 ones.


def _flatten(blocks) -> tuple:
    """The entries of the blocks, block by block and row by row."""
    out = []
    for block in blocks:
        for row in block:
            out.extend(row)
    return tuple(out)


def _split(flat, p: int, q: int, n0: int, n1: int) -> tuple:
    """The two blocks of a flat vector: n0 rows of p entries, then n1 rows
    of q."""
    off = n0 * p
    return (
        tuple([flat[i * p:(i + 1) * p] for i in range(n0)]),
        tuple([flat[off + i * q:off + (i + 1) * q] for i in range(n1)]),
    )


def _cut(A, p: int, n0: int) -> tuple:
    """The two diagonal blocks of a full matrix: its first n0 rows on its
    first p columns, and its other rows on its other columns."""
    return tuple(tuple(row[:p]) for row in A[:n0]), tuple(tuple(row[p:]) for row in A[n0:])


def _full(F, b0, b1, p: int, q: int) -> tuple:
    """The full matrix of two blocks on p and q columns, zero off them: the
    inverse of ``_cut``."""
    z = F.zero
    return tuple(tuple(row) + (z,) * q for row in b0) + tuple((z,) * p + tuple(row) for row in b1)


# ---------------------------------------------------------------------------
# morphisms


def torsion_compatible(S: TorsionPart, i: int, T: TorsionPart, k: int) -> bool:
    """Whether summand i of S has a nonzero map to summand k of T: on their
    bars [b, d) = [-a, n - a), b_k <= b_i < d_k <= d_i, that is, k is alive
    at the birth degree of i, and i dies no earlier than k."""
    n, a = S.summands[i]
    nk, ak = T.summands[k]
    return -ak <= -a < nk - ak <= n - a


@dataclass(frozen=True)
class Morphism:
    """A map in the category, stored blockwise.

    a00/a11: constant matrices on the two ambient coordinate types; tt: one
    scalar per (target, source) pair of torsion summands, the coefficient of
    x^(a_k - a_i) in the image of the generator of source summand i on
    target summand k, zero off the compatible pairs; ft: for each adapted
    lattice generator of the source, its image among the target torsion
    slots at the generator's jump.  The torsion-to-lattice component is
    always zero.
    """

    src: CObject
    dst: CObject
    a00: tuple
    a11: tuple
    tt: tuple  # dst torsion summands x src torsion summands
    ft: tuple  # per src lattice generator: vector over dst torsion slots

    def full_matrix(self) -> tuple:
        X = self.src
        return _full(X.field, self.a00, self.a11, X.p, X.q)

    def tt_at(self, d: int) -> tuple:
        """The torsion block in degree d: tt on the summands alive there."""
        cols = self.src.torsion.slots_at(d)
        return tuple(tuple(self.tt[k][i] for i in cols) for k in self.dst.torsion.slots_at(d))

    def is_zero(self) -> bool:
        return not any(morphism_vector(self))


def morphism_vector(m: Morphism) -> tuple:
    """Flatten a morphism to coordinates (fixed order for a given src/dst)."""
    return _flatten((m.a00, m.a11, m.tt, m.ft))


def identity_morphism(X: CObject) -> Morphism:
    F = X.field
    return morphism_from_parts(
        X,
        X,
        linalg.identity(F, X.p),
        linalg.identity(F, X.q),
        linalg.identity(F, len(X.torsion.summands)),
    )


def morphism_from_parts(X: CObject, Y: CObject, a00, a11, tt=None, ft=None) -> Morphism:
    F = X.field
    if tt is None:
        tt = linalg.zeros(F, len(Y.torsion.summands), len(X.torsion.summands))
    if ft is None:
        ft = tuple(
            tuple(F.zero for _ in Y.torsion.slots_at(jump))
            for jump in X.lattice.jump_list
        )
    return Morphism(
        X, Y, *(tuple(map(tuple, block)) for block in (a00, a11, tt, ft))
    )


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f."""
    if f.dst != g.src:
        raise ComposabilityError("endpoints do not match for composition")
    F = f.src.field
    X, Y, Z = f.src, f.dst, g.dst
    a00 = linalg.mm(F, g.a00, f.a00, Y.p, X.p)
    a11 = linalg.mm(F, g.a11, f.a11, Y.q, X.q)
    # the masked product: generator i reaches summand k only if k is alive
    # at its birth degree
    prod = linalg.mm(F, g.tt, f.tt, len(Y.torsion.summands), len(X.torsion.summands))
    tt = tuple(
        tuple(
            c if Z.torsion.alive(k, -a) else F.zero
            for c, (_, a) in zip(row, X.torsion.summands)
        )
        for k, row in enumerate(prod)
    )
    full_f = f.full_matrix()
    ft = []
    for j, (e, dir) in enumerate(X.lattice.generators()):
        gamma = adapted_coords(Y.lattice, linalg.mat_vec(F, full_f, dir), e)
        if gamma is None:
            raise NotLatticeMorphism("composition source map does not preserve the lattice")
        tt_part = linalg.mat_vec(F, g.tt_at(e), f.ft[j])
        ft.append(linalg.vec_add(F, _ft_image(g, gamma, e), tt_part))
    return morphism_from_parts(X, Z, a00, a11, tt, tuple(ft))


def _ft_image(m: Morphism, gamma, d: int) -> tuple:
    """The degree-d torsion slots of ``m`` applied to the lattice element of
    ``m.src`` with adapted coordinates ``gamma`` (zero past the generators
    alive at d): one ``linalg.mm`` of gamma with each generator's
    ``m.ft[t]``, moved up from its jump e_t to the degree-d slots by
    x^(d - e_t), which keeps the target summands alive at both degrees and
    zeroes the rest."""
    F, T = m.src.field, m.dst.torsion
    slots, n = T.slots_at(d), len(gamma)
    moved = []
    for (e, _), vec in zip(m.src.lattice.generators()[:n], m.ft):
        at = dict(zip(T.slots_at(e), vec))
        moved.append(tuple(at.get(i, F.zero) for i in slots))
    return linalg.mm(F, (gamma,), moved, n, len(slots))[0]


def sum_inclusion(big: CObject, factor: CObject, place, tmap) -> Morphism:
    """Inclusion of one direct summand, from its layout in ``big``
    (``objects.sum_layout``): ambient coordinate k of the factor goes to
    coordinate place[k] of big, its type-0 coordinates among big's type-0
    ones and its type-1 among the type-1, and torsion summand i to summand
    tmap[i]."""
    F, p = big.field, factor.p
    return morphism_from_parts(
        factor,
        big,
        linalg.unit_matrix(F, big.p, p, ((i, k) for k, i in enumerate(place[:p]))),
        linalg.unit_matrix(F, big.q, factor.q, ((i - big.p, k) for k, i in enumerate(place[p:]))),
        linalg.unit_matrix(
            F, len(big.torsion.summands), len(factor.torsion.summands),
            ((k, i) for i, k in tmap.items()),
        ),
    )


def sum_projection(big: CObject, factor: CObject, place, tmap) -> Morphism:
    """Projection of a direct sum onto one summand: the inclusion's three
    blocks transposed."""
    inc = sum_inclusion(big, factor, place, tmap)
    return morphism_from_parts(
        big, factor, *(linalg.transpose(b) for b in (inc.a00, inc.a11, inc.tt))
    )


def serre_twist_morphism(f: Morphism) -> Morphism:
    """The twist applied to a morphism: swap the blocks, shift the rest.

    The shift moves every torsion summand alike and keeps their order, so the
    torsion scalars pass through unchanged.
    """
    X, Y = f.src, f.dst
    VX, VY = serre_twist(X), serre_twist(Y)
    ft = []
    for ep, dirp in VX.lattice.generators():
        # undo the coordinate swap and the shift to land back in X
        dir = dirp[VX.p:] + dirp[:VX.p]
        gamma = adapted_coords(X.lattice, dir, ep - 1)
        if gamma is None:
            raise ZdinftyError("twisted generator escapes the original lattice")
        ft.append(_ft_image(f, gamma, ep - 1))
    return morphism_from_parts(VX, VY, f.a11, f.a00, f.tt, tuple(ft))


def serre_twist_class(c: ExtClass) -> ExtClass:
    """The twist applied to an extension class.

    Off-diagonal blocks swap; the lattice part of each torsion representative
    is transported through the coordinate swap and re-expressed in the
    twisted adapted basis.  The shift keeps the order of the torsion
    summands and moves each one's life by one degree, so the torsion
    coordinates pass through unchanged.
    """
    X, Y = c.src, c.dst
    VX, VY = serre_twist(X), serre_twist(Y)
    tor = []
    for i, (n, a) in enumerate(X.torsion.summands):
        h = n - a
        amb = Y.lattice_vector(h, c.tor[i])
        swapped = amb[Y.p:] + amb[:Y.p]
        gamma = adapted_coords(VY.lattice, swapped, h + 1)
        if gamma is None:
            raise ZdinftyError("twisted representative escapes the filtration")
        tor.append(
            tuple(gamma[: VY.lattice.dim_at(h + 1)]) + tuple(c.tor[i][Y.lattice.dim_at(h):])
        )
    return ext_space(VX, VY).reduce(c.h10, c.h01, tuple(tor))


def morphism_degreewise(m: Morphism, d: int) -> tuple:
    """Matrix of the morphism on the degree-d module slots."""
    F = m.src.field
    X, Y = m.src, m.dst
    full = m.full_matrix()
    ny, nx = Y.lattice.dim_at(d), X.lattice.dim_at(d)
    cols = []
    for (_, dir), unit in zip(X.lattice.generators(), linalg.identity(F, nx)):
        gamma = adapted_coords(Y.lattice, linalg.mat_vec(F, full, dir), d)
        if gamma is None:
            raise NotLatticeMorphism("morphism does not preserve the lattice")
        cols.append(tuple(gamma[:ny]) + _ft_image(m, unit, d))
    tt = m.tt_at(d)
    for k in range(X.torsion.dim_at(d)):
        cols.append((F.zero,) * ny + tuple(row[k] for row in tt))
    return linalg.transpose(cols) if cols else linalg.zeros(F, Y.module_dim_at(d), 0)


def validate_morphism(m: Morphism) -> None:
    """Raise unless the stored data is an actual morphism."""
    F = m.src.field
    full = m.full_matrix()
    for e, dir in m.src.lattice.generators():
        w = linalg.mat_vec(F, full, dir)
        if not membership(m.dst.lattice, GradedVector(e, w)):
            raise NotLatticeMorphism("block matrix does not preserve the filtration")
    S, T = m.src.torsion, m.dst.torsion
    gens = m.src.lattice.generators()
    if len(m.ft) != len(gens) or any(
        len(vec) != T.dim_at(e) for vec, (e, _) in zip(m.ft, gens)
    ):
        raise ShapeMismatch("lattice-to-torsion component needs one vector per generator")
    if len(m.tt) != len(T.summands) or any(len(row) != len(S.summands) for row in m.tt):
        raise ShapeMismatch("torsion component needs one scalar per pair of summands")
    for k, row in enumerate(m.tt):
        for i, c in enumerate(row):
            if c and not torsion_compatible(S, i, T, k):
                raise ZdinftyError("torsion component does not commute with x")


# ---------------------------------------------------------------------------
# hom spaces


@dataclass(frozen=True)
class HomSpace:
    """Hom(src, dst) as what spans it: the lattice maps as (a00, a11) pairs,
    the compatible torsion pairs (k, i), and per source lattice generator the
    number of target torsion slots at its jump.  ``dim`` is their count,
    fixed by ``hom_space`` from the kept echelon of the lattice constraints
    (``_hom_count``): the unknowns less its rank, plus the torsion
    counts.  The lattice maps, the pairs and the widths are listed, and the
    basis maps built, only when read; ``==`` and ``repr`` read none of them,
    nor the echelon, which ``src`` and ``dst`` fix."""

    src: CObject
    dst: CObject
    echelon: linalg.Echelon = field(compare=False, repr=False)  # _hom_count's, never added to
    dim: int  # the lattice maps, the torsion pairs and the summed widths

    @cached_property
    def lattice_maps(self) -> tuple:
        """(a00, a11) per lattice basis map: the kernel of the kept echelon,
        built on first read."""
        return _constant_matrix_solutions(self.src, self.dst, self.echelon)

    @cached_property
    def torsion_pairs(self) -> tuple:
        """(target k, source i) per compatible pair of summands."""
        S, T = self.src.torsion, self.dst.torsion
        return tuple(
            (k, i) for k in range(len(T.summands)) for i in range(len(S.summands))
            if torsion_compatible(S, i, T, k)
        )

    @cached_property
    def ft_widths(self) -> tuple:
        """Per source lattice generator, the target torsion slots at its jump."""
        T = self.dst.torsion
        return tuple(T.dim_at(jump) for jump in self.src.lattice.jump_list)

    @cached_property
    def basis(self) -> tuple:
        """The lattice maps, then one unit map per compatible torsion pair,
        then one per lattice-generator-to-torsion slot, built on first read.
        Every map after the lattice maps is zero on the lattice; its zero
        blocks, and the zero ft of the torsion maps, are built once and shared."""
        X, Y = self.src, self.dst
        F = X.field
        basis = [morphism_from_parts(X, Y, a00, a11) for a00, a11 in self.lattice_maps]
        nt, ns = len(Y.torsion.summands), len(X.torsion.summands)
        a00, a11 = linalg.zeros(F, Y.p, X.p), linalg.zeros(F, Y.q, X.q)
        ft = tuple((F.zero,) * width for width in self.ft_widths)
        for k, i in self.torsion_pairs:
            tt = linalg.unit_matrix(F, nt, ns, [(k, i)])
            basis.append(Morphism(X, Y, a00, a11, tt, ft))
        tt = linalg.zeros(F, nt, ns)
        for j, zero in enumerate(ft):
            for s in range(len(zero)):
                unit = zero[:s] + (F.one,) + zero[s + 1:]
                basis.append(Morphism(X, Y, a00, a11, tt, ft[:j] + (unit,) + ft[j + 1:]))
        return tuple(basis)

    @cached_property
    def _units(self) -> tuple:
        """The flattened basis, and the position of each vector's last
        nonzero entry: a one there, where every other basis vector is zero."""
        flat = tuple(morphism_vector(b) for b in self.basis)
        return flat, tuple(max(i for i, c in enumerate(v) if c) for v in flat)

    def coordinates(self, m: Morphism) -> tuple:
        """Coefficients of a morphism in the basis: its entries at the unit
        positions, checked by one product once its blocks fit the layout."""
        X, Y = self.src, self.dst
        if (m.src, m.dst) != (X, Y):
            raise ShapeMismatch("morphism is not in this Hom space")
        nt, ns = len(Y.torsion.summands), len(X.torsion.summands)
        shape = tuple(tuple(map(len, block)) for block in (m.a00, m.a11, m.tt, m.ft))
        if shape != ((X.p,) * Y.p, (X.q,) * Y.q, (ns,) * nt, self.ft_widths):
            raise ShapeMismatch("morphism blocks do not match the Hom space's layout")
        v = morphism_vector(m)
        flat, units = self._units
        coords = tuple(v[i] for i in units)
        if linalg.mm(X.field, (coords,), flat, len(flat), len(v))[0] != v:
            raise ZdinftyError("morphism escapes the Hom basis")
        return coords


def hom_kx_space(X: CObject, Y: CObject) -> tuple:
    """Basis of constant matrices A with A S_e(X) inside S_e(Y) for all e.

    This is the restriction to graded modules: no block constraint.  Both
    objects must be torsion-free.  With every coordinate typed 0 the block
    constraint is empty, so the basis is the a00 blocks of the category maps
    between such copies of X and Y.
    """
    check_same_field(X.field, Y.field)
    if not X.is_torsion_free() or not Y.is_torsion_free():
        raise NotLatticeMorphism("restricted hom needs torsion-free objects")
    F = X.field
    Xu, Yu = (
        CObject(F, Z.torsion, GradedLattice(F, Z.rank, 0, Z.lattice.steps)) for Z in (X, Y)
    )
    return tuple(a00 for a00, _ in _constant_matrix_solutions(Xu, Yu, _hom_count(Xu, Yu)[0]))


def _hom_torsion(X: CObject, Y: CObject) -> int:
    """The torsion part of dim Hom(X, Y), counted on bars: per lattice
    generator of X, the bars of Y holding its jump e (b_k <= e < d_k), the
    target slots its image may reach; and per summand of X, the summands of
    Y it maps onto (``torsion_compatible``)."""
    S, T = X.torsion, Y.torsion
    ts = T.summands
    # This early return and those of ``_hom_count`` and ``_ext_count`` give
    # what their loops would; kept because taking the three out made
    # serre-sweep 15 % slower (CHANGES.md, the fast-path table).
    if not ts:
        return 0
    count = 0
    for e in X.lattice.jump_list:
        for n, a in ts:
            if -a <= e < n - a:
                count += 1
    for i in range(len(S.summands)):
        for k in range(len(ts)):
            count += torsion_compatible(S, i, T, k)
    return count


def _hom_count(X: CObject, Y: CObject) -> tuple:
    """The eliminated constraints on block-diagonal constant matrices
    (a00, a11) mapping the filtration of X into that of Y, and dim Hom(X, Y):
    the unknowns less the echelon's rank, plus ``_hom_torsion``.  A matrix
    maps the filtration when u . A dir_j = 0 for each u annihilating
    S_(e_j)(Y).  The unknowns are the entries of a00, then of a11, row by
    row, so each constraint row is u (x) dir_j on the two diagonal blocks
    (``_ext_count`` builds its rows by the same loop, Y's types swapped).
    ``hom_space`` keeps the echelon as it is, and nothing adds to it after;
    ``serre_check`` reads its rows and keeps nothing, and
    ``decomp.dimensions`` reads the count alone, on pairs of factors."""
    F = X.field
    XL, YL = X.lattice, Y.lattice
    p, q, pp, qq = XL.p, XL.q, YL.p, YL.q
    dim = _hom_torsion(X, Y)
    if not (p + q and pp + qq):  # kept: see ``_hom_torsion``
        return linalg.NO_ROWS, dim
    mul, zero = F.mul, F.zero
    rows = []
    for e, dir in XL.generators():
        d0, d1 = dir[:p], dir[p:]
        for u in YL.annihilator_at(e):
            row = [mul(a, b) if a and b else zero for a in u[:pp] for b in d0]
            row += [mul(a, b) if a and b else zero for a in u[pp:] for b in d1]
            if any(row):
                rows.append(row)
    echelon = linalg._echelon(F, rows) if rows else linalg.NO_ROWS
    return echelon, dim + pp * p + qq * q - len(echelon)


def _constant_matrix_solutions(X: CObject, Y: CObject, echelon: linalg.Echelon) -> tuple:
    """The block-diagonal (a00, a11) maps of the filtration of X into Y's:
    the kernel of the constraint echelon of ``_hom_count``, each vector
    split into its two blocks."""
    p, q, pp, qq = X.p, X.q, Y.p, Y.q
    kernel, _ = echelon.kernel(pp * p + qq * q)
    return tuple(_split(vec, p, q, pp, qq) for vec in kernel)


def hom_space(X: CObject, Y: CObject) -> HomSpace:
    """The category Hom, counted: the block-diagonal lattice maps, one
    torsion map per compatible pair of summands, and one free-generator image
    per target torsion slot at the generator's jump.  Only the lattice maps
    need a solve: their constraints are eliminated and counted, the
    unknowns less the rank (``_hom_count``), and the maps are built from the
    kept echelon when ``lattice_maps`` is first read.  Both torsion terms
    are counts of bars (``_hom_torsion``); ``HomSpace`` lists the pairs and
    widths, and builds its basis maps, only when read."""
    check_same_field(X.field, Y.field)
    echelon, dim = _hom_count(X, Y)
    return HomSpace(X, Y, echelon, dim)


# ---------------------------------------------------------------------------
# ext spaces


@dataclass(frozen=True)
class ExtClass:
    """Canonical coset representative of a degree-one extension class.

    h01/h10 are the off-diagonal blocks for the lattice parts; ``tor`` holds,
    per torsion summand (n, a) of the source, a vector over the target's
    module slots at degree n - a, read modulo the x^n image of the slots at
    degree -a.
    """

    src: CObject
    dst: CObject
    h01: tuple
    h10: tuple
    tor: tuple

    def is_zero(self) -> bool:
        return not any(map(any, (*self.h01, *self.h10, *self.tor)))


@dataclass(frozen=True)
class ExtSpace:
    """Ext(src, dst) as the kept echelon of the off-diagonal image, its
    sorted pivots, the block widths and the count of free positions, all
    fixed by ``ext_space``.  The reduced image rows (``ff_reduction``) and
    the slots each torsion block is reduced at are built when first read,
    and the canonical basis, the unit classes at the free positions, only
    when ``basis`` is read; ``==`` and ``repr`` read none of them, nor the
    echelon and pivots, which ``src`` and ``dst`` fix."""

    src: CObject
    dst: CObject
    echelon: linalg.Echelon = field(compare=False, repr=False)  # _ext_count's, never added to
    pivots: tuple = field(compare=False, repr=False)  # the echelon's pivots, sorted
    widths: tuple  # per block of a class (see ``_class``): its length
    dim: int  # the free positions: the widths less the pivots and hit slots

    @cached_property
    def ff_reduction(self) -> tuple:
        """(reduced echelon rows, pivots) of the off-diagonal image, built
        on first read."""
        return self.echelon.reduced()

    @cached_property
    def tor_reduction(self) -> tuple:
        """Per source torsion summand T[n, a], the degree-(n - a) slots that
        the x^n image of degree -a hits (``CObject.xpower_slots``)."""
        Y = self.dst
        return tuple(
            tuple(k for k, _ in Y.xpower_slots(-a, n - a)) for n, a in self.src.torsion.summands
        )

    def _pivots(self) -> tuple:
        """Per block, the positions a reduced class holds zero at."""
        return (self.pivots,) + self.tor_reduction

    def _free(self) -> tuple:
        """Per block, the positions off its pivots."""
        return tuple(
            tuple(sorted(set(range(width)).difference(pivots)))
            for width, pivots in zip(self.widths, self._pivots())
        )

    def _class(self, blocks) -> ExtClass:
        """The class with the given blocks: the flattened off-diagonal
        entries, then one vector per source torsion summand."""
        X, Y = self.src, self.dst
        h01, h10 = _split(blocks[0], X.p, X.q, Y.q, Y.p)
        return ExtClass(X, Y, h01, h10, tuple(blocks[1:]))

    def _blocks(self, h01, h10, tor) -> tuple:
        """The blocks of a class's data, checked against the layout."""
        X, Y = self.src, self.dst
        tor = tuple(tor)
        shape = (tuple(map(len, h01)), tuple(map(len, h10)), tuple(map(len, tor)))
        if shape != ((X.p,) * Y.q, (X.q,) * Y.p, self.widths[1:]):
            raise ShapeMismatch("class blocks do not match the Ext space's layout")
        return (_flatten((h01, h10)),) + tor

    @cached_property
    def basis(self) -> tuple:
        """The unit classes at the free positions, built on first read."""
        F = self.src.field
        zero = tuple((F.zero,) * width for width in self.widths)
        return tuple(
            self._class(zero[:b] + (zero[b][:k] + (F.one,) + zero[b][k + 1:],) + zero[b + 1:])
            for b, free in enumerate(self._free())
            for k in free
        )

    def reduce(self, h01, h10, tor) -> ExtClass:
        """Canonical representative of the class with the given raw data."""
        F = self.src.field
        blocks = self._blocks(h01, h10, tor)
        (rows, pivots), flat = self.ff_reduction, blocks[0]
        # The rows are reduced, so one product of the entries at the pivots
        # subtracts them all, as reducing against the rows one by one does.
        lift = linalg.mm(F, ([-flat[k] for k in pivots],), rows, len(rows), len(flat))[0]
        return self._class(
            [linalg.vec_add(F, flat, lift)]
            + [
                tuple(F.zero if k in hit else c for k, c in enumerate(v))
                for v, hit in zip(blocks[1:], self.tor_reduction)
            ]
        )

    def coordinates(self, c: ExtClass) -> tuple:
        """Coefficients of a reduced class in the canonical basis: its entries
        at the free positions, once those at the pivots are checked zero."""
        if (c.src, c.dst) != (self.src, self.dst):
            raise ShapeMismatch("class is not in this Ext space")
        blocks = self._blocks(c.h01, c.h10, c.tor)
        if any(v[k] for v, pivots in zip(blocks, self._pivots()) for k in pivots):
            raise ZdinftyError("class representative is not reduced")
        return tuple(v[k] for v, free in zip(blocks, self._free()) for k in free)


def offdiag_blocks(A, X: CObject, Y: CObject) -> tuple:
    """The off-diagonal blocks (h01, h10) of a full Y.rank x X.rank matrix:
    the diagonal blocks of A with Y's type-1 rows moved first."""
    return _cut(A[Y.p:] + A[:Y.p], X.p, Y.q)


def diag_blocks(A, X: CObject, Y: CObject) -> tuple:
    """The diagonal blocks (a00, a11) of a full Y.rank x X.rank matrix: type-0
    rows on type-0 columns, and type-1 rows on type-1 columns."""
    return _cut(A, X.p, Y.p)


def offdiag_full(c: ExtClass) -> tuple:
    """The class blocks as a full Y.rank x X.rank matrix, zero on the diagonal
    blocks: the inverse of ``offdiag_blocks``."""
    X, qq = c.src, c.dst.q
    A = _full(X.field, c.h01, c.h10, X.p, X.q)
    return A[qq:] + A[:qq]


def _ext_torsion(X: CObject, Y: CObject) -> int:
    """The torsion part of dim Ext(X, Y), counted on bars.  A summand of X
    with bar [b, d) adds the degree-d slots of Y less those the x^(d - b)
    image of degree b hits (``ExtSpace.tor_reduction``).  That image keeps
    the generators alive at b and the summands alive at both degrees, so the
    slots it misses are the generators with jump in (b, d] and the summands
    alive at d but not at b, which are the bars born in (b, d]:
    (dim S_d(Y) - dim S_b(Y)) + #{k : b < b_k <= d < d_k}."""
    YL, ts = Y.lattice, Y.torsion.summands
    count = 0
    for n, a in X.torsion.summands:
        b, d = -a, n - a
        count += YL.dim_at(d) - YL.dim_at(b)
        for nk, ak in ts:
            if b < -ak <= d < nk - ak:
                count += 1
    return count


def _ext_count(X: CObject, Y: CObject) -> tuple:
    """The eliminated lattice image of ``ext_space`` and dim Ext(X, Y): the
    off-diagonal cells less the echelon's rank, plus ``_ext_torsion``.  Its
    loop is ``_hom_count``'s with Y's rows read type-swapped (s[pp:], s[:pp]
    where that one reads u[:pp], u[pp:]), as the class layout is the map
    layout into Y with its types swapped; the two loops stay apart, since
    one row builder fed by a generator of row pairs slowed the duality
    sweep by 3-4 %.  ``ext_space`` keeps the echelon as it is, and nothing
    adds to it after; ``serre_check`` reads its pivots and keeps nothing."""
    F = X.field
    XL, YL = X.lattice, Y.lattice
    p, q, pp, qq = XL.p, XL.q, YL.p, YL.q
    n_off = qq * p + pp * q
    dim = _ext_torsion(X, Y)
    if not n_off:  # kept: see ``_hom_torsion``
        return linalg.NO_ROWS, dim
    mul, zero = F.mul, F.zero
    rows = []
    for (e, _), g in zip(XL.generators(), XL.generator_inverse):
        g0, g1 = g[:p], g[p:]
        for s in YL.subspace_at(e):
            vec = [mul(a, b) if a and b else zero for a in s[pp:] for b in g0]
            vec += [mul(a, b) if a and b else zero for a in s[:pp] for b in g1]
            if any(vec):
                rows.append(vec)
    echelon = linalg._echelon(F, rows) if rows else linalg.NO_ROWS
    return echelon, dim + n_off - len(echelon)


def ext_space(X: CObject, Y: CObject) -> ExtSpace:
    """Basis of degree-one extensions of X by Y with canonical representatives.

    Both reductions are read off stored data; nothing is solved, and the
    lattice image is eliminated once (``_ext_count``) and kept, with its
    sorted pivots.

    - Lattice image.  The classes are off-diagonal blocks (h01, h10) modulo
      those of Hom_kx(X, Y), the constant matrices A with A S_e(X) inside
      S_e(Y) for every e.  X is freely generated by x^(e_j) dir_j, so A is
      such a map exactly when A dir_j lies in S_(e_j)(Y) for every j, and
      A is the sum of (A dir_j) (x) g*_j over j, with g*_j row j of the
      lattice's ``generator_inverse``.  So Hom_kx is spanned by s (x) g*_j,
      s over the echelon rows of S_(e_j)(Y), and ``ff_reduction``, built
      from the kept echelon when first read, is the unique rref of those
      products' off-diagonal entries.
    - Torsion image.  A summand T[n, a] of X is read modulo the x^n image
      of degree -a in degree n - a of Y.  That map is a partial identity
      (``CObject.xpower_slots``), so its image is spanned by the unit
      vectors at the slots it hits, and ``tor_reduction`` keeps those slots
      alone: reducing a vector zeroes it there.  The block's free positions
      are its width less the hit slots, a count of bars
      (``_ext_torsion``), so ``dim`` is a count and the slots are listed
      only when ``tor_reduction`` is first read.
    """
    check_same_field(X.field, Y.field)
    echelon, dim = _ext_count(X, Y)
    widths = (Y.q * X.p + Y.p * X.q,) + tuple(Y.module_dim_at(n - a) for n, a in X.torsion.summands)
    pivots = tuple(sorted(piv for piv, _ in echelon.rows))
    return ExtSpace(X, Y, echelon, pivots, widths, dim)


# ---------------------------------------------------------------------------
# Yoneda composition


@dataclass(frozen=True)
class DegreeTwoWitness:
    """Product of two degree-one classes: identically zero here.

    Carried as a value (not an error) so composition pipelines can observe
    the flag; the category is hereditary, so nothing is lost.
    """

    src: CObject
    dst: CObject
    flag: str = "Degree2NotSupported"

    def is_zero(self) -> bool:
        return True


def yoneda_compose(g, f):
    """Yoneda product g . f for morphisms and degree-one classes."""
    if isinstance(g, Morphism) and isinstance(f, Morphism):
        return compose(g, f)
    if isinstance(g, ExtClass) and isinstance(f, Morphism):
        return _class_after_morphism(g, f)
    if isinstance(g, Morphism) and isinstance(f, ExtClass):
        return _morphism_after_class(g, f)
    if isinstance(g, ExtClass) and isinstance(f, ExtClass):
        if f.dst != g.src:
            raise ComposabilityError("endpoints do not match for composition")
        return DegreeTwoWitness(f.src, g.dst)
    raise ComposabilityError(f"cannot compose {type(g).__name__} with {type(f).__name__}")


def _class_after_morphism(g: ExtClass, f: Morphism) -> ExtClass:
    """Precompose a class in Ext(X, Y) with f: X' -> X."""
    if f.dst != g.src:
        raise ComposabilityError("endpoints do not match for composition")
    F = f.src.field
    Xp, X, Y = f.src, g.src, g.dst
    h01 = linalg.mm(F, g.h01, f.a00, X.p, Xp.p)
    h10 = linalg.mm(F, g.h10, f.a11, X.q, Xp.q)

    # lattice generators of X' hitting torsion of X drag in the torsion
    # classes, re-expressed as a constant matrix into the divisible cokernel
    if Xp.rank > 0 and Y.rank > 0 and any(map(any, f.ft)):
        amb = [Y.lattice_vector(n - a, v) for (n, a), v in zip(X.torsion.summands, g.tor)]
        wcols = []
        for e, vec in zip(Xp.lattice.jump_list, f.ft):
            alive = tuple(amb[i] for i in X.torsion.slots_at(e))
            wcols.append(linalg.mm(F, (vec,), alive, len(vec), Y.rank)[0])
        Ginv = Xp.lattice.generator_inverse
        D = linalg.mm(F, linalg.transpose(wcols), Ginv, len(wcols), len(wcols))
        d01, d10 = offdiag_blocks(D, Xp, Y)
        h01 = linalg.mat_add(F, h01, d01)
        h10 = linalg.mat_add(F, h10, d10)

    tor = []
    for ip, (n_p, a_p) in enumerate(Xp.torsion.summands):
        h = n_p - a_p
        coeffs, moved = [], []  # f's entries into X's summands, g's vectors there moved to h
        for i, (n_i, a_i) in enumerate(X.torsion.summands):
            if c := f.tt[i][ip]:
                if h < n_i - a_i:
                    raise ZdinftyError("inconsistent torsion component in composition")
                coeffs.append(c)
                moved.append(linalg.mat_vec(F, module_xpower(Y, n_i - a_i, h), g.tor[i]))
        tor.append(linalg.mm(F, (coeffs,), moved, len(moved), Y.module_dim_at(h))[0])
    return ext_space(Xp, Y).reduce(h01, h10, tuple(tor))


def _morphism_after_class(h: Morphism, c: ExtClass) -> ExtClass:
    """Postcompose a class in Ext(X, Y) with h: Y -> Y'."""
    if c.dst != h.src:
        raise ComposabilityError("endpoints do not match for composition")
    F = h.src.field
    X, Y, Yp = c.src, c.dst, h.dst
    h01 = linalg.mm(F, h.a11, c.h01, Y.q, X.p)
    h10 = linalg.mm(F, h.a00, c.h10, Y.p, X.q)
    tor = []
    for i, (n_i, a_i) in enumerate(X.torsion.summands):
        mat = morphism_degreewise(h, n_i - a_i)
        tor.append(linalg.mat_vec(F, mat, c.tor[i]))
    return ext_space(X, Yp).reduce(h01, h10, tuple(tor))


# ---------------------------------------------------------------------------
# trace map and Serre pairing


def eta(Fobj: CObject, c) -> object:
    """Trace functional on extensions of a torsion-free object by its twist.

    Well-defined on classes: reducing a representative adds the off-diagonal
    blocks of a filtration-preserving map into the shifted swap, and those
    are nilpotent, so their trace is zero.  The trace of an unreduced
    composite is therefore that of its class, and the Serre pairing of
    f: F -> G with a class g in Ext(G, VF) is
    tr(g.h01 . f.a00) + tr(g.h10 . f.a11), with no reduction.
    Morphisms (degree zero) are sent to zero by convention.
    """
    F = Fobj.field
    if not Fobj.is_torsion_free():
        raise ShapeMismatch("trace functional is defined on torsion-free objects")
    if isinstance(c, Morphism):
        if c.src != Fobj or c.dst != serre_twist(Fobj):
            raise ShapeMismatch("trace functional needs a map from F to its twist")
        return F.zero
    if isinstance(c, DegreeTwoWitness):
        return F.zero
    if c.src != Fobj or c.dst != serre_twist(Fobj):
        raise ShapeMismatch("trace functional needs a class in Ext(F, VF)")
    return F.add(linalg.trace(F, c.h01), linalg.trace(F, c.h10))


def _gram(hom: HomSpace, ext: ExtSpace, flipped: bool = False) -> tuple:
    """Gram matrix of the trace pairing between the two bases.

    Each class (torsion-free source) is a one at a free position h01[i][k]
    or h10[i][k], and tr(B . A) sums B[i][k] A[k][i]; so it pairs with a map
    by entry [i][k] of its a00 or a11 transposed, the two swapped when the
    map follows the class (flipped).  The transposed blocks have the class
    blocks' shapes, so a Gram row is them flattened and read at the free
    positions.  Between torsion-free objects every Hom basis map is a
    lattice map, so the blocks are the (a00, a11) pairs of
    ``HomSpace.lattice_maps`` and no map is built.  Rows run over Hom, or
    over Ext when flipped.  ``serre_check`` builds no such matrix.
    """
    free = ext._free()[0]
    rows = tuple(
        tuple(v[k] for k in free)
        for v in (
            _flatten(map(linalg.transpose, m[::-1] if flipped else m)) for m in hom.lattice_maps
        )
    )
    if flipped:
        return tuple(zip(*rows)) if rows else ((),) * len(free)
    return rows


def serre_gram(Fobj: CObject, G: CObject, flipped: bool = False):
    """Gram matrix of the duality pairing in the computed bases.

    Default: Hom(F, G) x Ext(G, VF) -> k by (f, g) -> eta(g . f).
    Flipped: Ext(F, G) x Hom(G, VF) -> k.
    Each Ext basis class is a unit vector, so the matrix selects one entry
    of each Hom basis map per free position of the Ext space (see ``eta``
    and ``_gram``); no composite is formed or reduced, and no class is built.
    """
    check_same_field(Fobj.field, G.field)
    if not (Fobj.is_torsion_free() and G.is_torsion_free()):
        raise ShapeMismatch("the pairing is computed for torsion-free objects")
    VF = serre_twist(Fobj)
    if not flipped:
        return _gram(hom_space(Fobj, G), ext_space(G, VF))
    return _gram(hom_space(G, VF), ext_space(Fobj, G), flipped=True)


@dataclass(frozen=True, init=False)
class SerreReport:
    """One pair's duality verdict: both dimensions, and the Gram rank when
    both objects are torsion-free.

    Built once per checked pair, it fills its fields with one dict update:
    the ``__init__`` a frozen dataclass generates calls
    ``object.__setattr__`` per field, about a tenth of a sweep of tiny
    pairs.  Equality, hashing, ``repr`` and frozenness stay the generated
    ones.
    """

    X: CObject
    Y: CObject
    dim_hom: int
    dim_ext_twisted: int
    dims_match: bool
    gram_rank: int | None
    gram_nondegenerate: bool | None

    def __init__(self, X, Y, dim_hom, dim_ext_twisted, dims_match, gram_rank, gram_nondegenerate):
        vars(self).update(
            X=X, Y=Y, dim_hom=dim_hom, dim_ext_twisted=dim_ext_twisted, dims_match=dims_match,
            gram_rank=gram_rank, gram_nondegenerate=gram_nondegenerate,
        )

    @property
    def passed(self) -> bool:
        ok = self.dims_match
        if self.gram_nondegenerate is not None:
            ok = ok and self.gram_nondegenerate
        return ok


def serre_check(X: CObject, Y: CObject) -> SerreReport:
    """Compare dim Hom(X, Y) with dim Ext(Y, VX); check the pairing rank.

    Both dimensions come from the counts ``_hom_count`` and ``_ext_count``,
    so no ``HomSpace`` or ``ExtSpace`` is built and no echelon kept.  On
    two torsion-free objects the Gram (``_gram``) is the lattice maps read
    at the free cells S of the Ext image.  Let C be the Hom constraint
    matrix, E its kept echelon rows, P the Ext pivot cells and P' the Hom
    unknowns they pair with through the transpose (h01[i][k] with a00[k][i],
    h10[i][k] with a11[k][i]).  Then:

    - the Gram is ker C restricted to S, the unknowns off P';
    - the vectors of ker C that vanish on S form ker C[:, P'], of dimension
      |P| - rank C[:, P'];
    - row operations keep column ranks, so rank C[:, P'] = rank E[:, P'].

    So the Gram rank is dim Hom - |P| + rank E[:, P']: one small rank, with
    no kernel vector and no Gram matrix.  With no Hom basis map it is 0.
    """
    check_same_field(X.field, Y.field)
    hom_echelon, d_hom = _hom_count(X, Y)
    ext_echelon, d_ext = _ext_count(Y, serre_twist(X))
    gram_rank = gram_ok = None
    if not (X.torsion.summands or Y.torsion.summands):
        gram_rank = 0
        if d_hom:
            # Ext cell k is h01[i][k'] with (i, k') = divmod(k, Y.p) below
            # n01, else h10[i][k'] with (i, k') = divmod(k - n01, Y.q); it
            # pairs with unknown a00[k'][i] = k' X.p + i, or with
            # a11[k'][i] = n01 + k' X.q + i
            n01, pp, qq = X.p * Y.p, Y.p, Y.q
            cols = [
                k % pp * X.p + k // pp if k < n01
                else n01 + (k - n01) % qq * X.q + (k - n01) // qq
                for k, _ in ext_echelon.rows
            ]
            gram_rank = d_hom - len(cols)
            if cols:
                selected = [[row[c] for c in cols] for _, row in hom_echelon.rows]
                gram_rank += linalg.rank(X.field, selected)
        gram_ok = gram_rank == d_hom == d_ext
    return SerreReport(X, Y, d_hom, d_ext, d_hom == d_ext, gram_rank, gram_ok)


def euler_form(X: CObject, Y: CObject) -> int:
    """dim Hom(X, Y) - dim Ext(X, Y), counted with no elimination.

    The lattice parts of both are the kernel and the cokernel of one map:
    Hom_kx(X, Y), free on the N = sum_j dim S_(e_j)(Y) products s (x) g*_j
    (see ``ext_space``), projected onto the n_off off-diagonal cells.  With
    r its rank they are N - r and n_off - r, so their difference N - n_off
    has no r in it.  The torsion parts are the bar counts ``_hom_torsion``
    and ``_ext_torsion``.
    """
    check_same_field(X.field, Y.field)
    XL, YL = X.lattice, Y.lattice
    n = sum(YL.dim_at(e) for e in XL.jump_list)
    return n - (YL.q * XL.p + YL.p * XL.q) + _hom_torsion(X, Y) - _ext_torsion(X, Y)
