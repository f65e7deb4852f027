"""Degreewise models of graded modules on a finite degree window.

A window module records a graded module at listed degrees, with x the
identity between them.  Together with a chart identifying the top degree
with the ambient space k^r this is enough to recover the canonical
torsion/lattice data of a finitely generated object: the lattice filtration
is the image in the localization, and the torsion summands are the bars of
the kernel's persistence module, found by one elder-rule sweep over the
listed degrees that also yields an isomorphism onto the canonical model.
A persistence module changes only at its critical values, so listing those
is enough, and then the cost does not grow with the length of a bar.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from . import linalg
from .errors import ZdinftyError
from .fields import FieldSpec
from .lattice import GradedLattice, from_filtration


@dataclass(frozen=True)
class WindowModule:
    """The pieces of a graded module at the listed ``degrees``, ascending.

    The piece at every degree from D[i] to D[i+1] - 1 is the one at D[i],
    and x is the identity on it there; ``xmaps[i]`` is multiplication by x
    from degree D[i+1] - 1 to D[i+1].  A contiguous window lists every
    degree of [lo, hi], and then ``xmaps[i]`` runs from lo + i to lo + i + 1.
    """

    field: FieldSpec
    degrees: tuple  # ascending
    dims: tuple  # dims[i]: dimension at degrees[i]
    xmaps: tuple  # xmaps[i]: degree degrees[i+1] - 1 -> degrees[i+1]

    def __post_init__(self):
        if not self.degrees or any(a >= b for a, b in zip(self.degrees, self.degrees[1:])):
            raise ZdinftyError("window degrees must be listed in ascending order")
        if len(self.dims) != len(self.degrees):
            raise ZdinftyError("window dimensions do not match the listed degrees")
        if len(self.xmaps) != len(self.degrees) - 1:
            raise ZdinftyError("window x-maps do not match the listed degrees")

    @property
    def lo(self) -> int:
        return self.degrees[0]

    @property
    def hi(self) -> int:
        return self.degrees[-1]

    def dim_at(self, d: int) -> int:
        """Dimension at any degree d: the one at the last listed degree <= d."""
        if d < self.lo or d > self.hi:
            return 0
        return self.dims[bisect_right(self.degrees, d) - 1]

    def xmap(self, d: int) -> tuple:
        """Matrix of multiplication by x from any degree d to d+1."""
        if d < self.lo or d >= self.hi:
            return linalg.zeros(self.field, self.dim_at(d + 1), self.dim_at(d))
        i = bisect_right(self.degrees, d + 1) - 1
        if self.degrees[i] == d + 1:
            return self.xmaps[i - 1]
        return linalg.identity(self.field, self.dims[i])


def reconstruct_parts(wm: WindowModule, chart, p: int, q: int):
    """Recover (torsion summands, lattice, adapted basis) from a window model.

    ``chart`` is an invertible r x dims[-1] matrix identifying the top degree
    with k^r; the window must reach high enough that all torsion is dead and
    the filtration has stabilized at the top.  The lattice is the filtration
    of the chart images.  The torsion is the persistence module of the
    kernels K_d of the maps into the chart: one elder-rule sweep over the
    listed degrees, from low to high, splits it into bars, each a chain of
    vectors v, x v, ... , one per listed degree, that x kills after its
    last one.  A bar born at D[b] whose chain has c entries dies at
    D[b + c], so its length is D[b + c] - D[b].

    Returns the sorted torsion summands (n, a), the canonical GradedLattice,
    and ``basis``: per listed degree d, the matrix whose columns are the
    images in ``wm`` of the slots of the canonical model at d, in the slot
    order of ``objects.CObject``.  It commutes with x, the chart sends its
    top block to the canonical generator directions, and each block is
    invertible.  Every lattice jump and torsion birth and death of the
    canonical model is a listed degree.
    """
    F = wm.field
    D, dims, xmaps = wm.degrees, wm.dims, wm.xmaps
    top = len(D) - 1
    r = p + q
    if dims[top] != r or (r > 0 and linalg.inverse(F, chart) is None):
        raise ZdinftyError("window chart is not an isomorphism onto k^r")

    # Maps into the localization chart, listed degree by listed degree from the top.
    to_chart = [chart] * len(D)
    for i in range(top - 1, -1, -1):
        to_chart[i] = linalg.mm(F, to_chart[i + 1], xmaps[i], dims[i + 1], dims[i])
    if r > 0:
        lat = from_filtration(F, p, q, [(d, linalg.transpose(m)) for d, m in zip(D, to_chart)])
    else:
        lat = GradedLattice(F, p, q, ())

    bars = []  # finished (birth index, chain of vectors from the birth on)
    live = []  # bars alive at the previous listed degree, elder first
    for i in range(len(D)):
        kernel = linalg.nullspace(F, to_chart[i], ncols=dims[i])
        if i == top and kernel:
            raise ZdinftyError("torsion still alive at the top of the window")
        survivors, images = [], []
        for birth, chain in live:
            image = linalg.mat_vec(F, xmaps[i - 1], chain[-1])
            coeffs = linalg.coords_in_basis(F, images, image)
            if coeffs is None:
                chain.append(image)
                survivors.append((birth, chain))
                images.append(image)
                continue
            # The bar dies at D[i] - 1.  Its elders are alive on its whole
            # span; subtracting the same combination of them at every listed
            # degree makes x kill its last vector.
            for (elder_birth, elder_chain), c in zip(survivors, coeffs):
                if F.is_zero(c):
                    continue
                for t in range(len(chain)):
                    elder = linalg.vec_scale(F, F.neg(c), elder_chain[birth - elder_birth + t])
                    chain[t] = linalg.vec_add(F, chain[t], elder)
            bars.append((birth, chain))
        for v in kernel:
            if linalg.coords_in_basis(F, images, v) is None:
                survivors.append((i, [v]))
                images.append(v)
        live = survivors

    def summand(bar):
        birth, chain = bar
        return D[birth + len(chain)] - D[birth], -D[birth]

    bars.sort(key=summand)

    # Lattice generators solved at their jump and pushed up, then the bars.
    index = {d: i for i, d in enumerate(D)}
    cols = [[] for _ in D]
    for e, direction in lat.generators():
        i = index[e]
        u = linalg.solve(F, to_chart[i], direction)
        cols[i].append(u)
        for j in range(i, top):
            u = linalg.mat_vec(F, xmaps[j], u)
            cols[j + 1].append(u)
    for birth, chain in bars:
        for t, v in enumerate(chain):
            cols[birth + t].append(v)
    basis = {d: linalg.transpose(c) for d, c in zip(D, cols)}
    return tuple(map(summand, bars)), lat, basis


def quotient_model(field: FieldSpec, lo: int, hi: int, ambient_dims, relation_rows):
    """Window model of (coordinate spaces modulo relation subspaces).

    ``ambient_dims[d]`` is the number of coordinate slots at degree d, where
    slot i at degree d maps to slot i at degree d+1 when both exist (slots are
    aligned by index; extra slots at d+1 are new).  ``relation_rows[d]`` is a
    list of vectors spanning the subspace to quotient by.  Returns the window
    module together with, per degree, the chosen coset-representative slots.
    """
    reps = {}
    bases = {}
    for d in range(lo, hi + 1):
        rel, pivots = linalg.rref(field, relation_rows.get(d, ()))
        pivset = set(pivots)
        free = tuple(j for j in range(ambient_dims.get(d, 0)) if j not in pivset)
        reps[d] = free
        bases[d] = (rel, pivots)

    def project(d, vec):
        rel, pivots = bases[d]
        red = linalg.reduce_against(field, rel, pivots, vec)
        return tuple(red[j] for j in reps[d])

    dims = tuple(len(reps[d]) for d in range(lo, hi + 1))
    xmaps = []
    for d in range(lo, hi):
        cols = []
        na = ambient_dims.get(d + 1, 0)
        for j in reps[d]:
            vec = [field.zero] * na
            if j < na:
                vec[j] = field.one
            cols.append(project(d + 1, tuple(vec)))
        xmaps.append(linalg.transpose(cols))
    return WindowModule(field, tuple(range(lo, hi + 1)), dims, tuple(xmaps)), reps
