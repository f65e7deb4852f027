"""Degreewise models of graded modules on a finite degree window.

A window module records, for degrees lo..hi, a basis dimension per degree and
the multiplication-by-x matrices between consecutive degrees.  Together with
a chart identifying the top degree with the ambient space k^r this is enough
to recover the canonical torsion/lattice data of a finitely generated object:
the lattice filtration is the image in the localization, and the torsion
summands are the bars of the kernel's persistence module, found by one
elder-rule sweep that also yields an isomorphism onto the canonical model.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import ZdinftyError
from .fields import FieldSpec
from .lattice import GradedLattice, from_filtration


@dataclass(frozen=True)
class WindowModule:
    field: FieldSpec
    lo: int
    hi: int
    dims: tuple  # length hi - lo + 1
    xmaps: tuple  # length hi - lo; xmaps[i]: degree lo+i -> lo+i+1

    def __post_init__(self):
        if len(self.dims) != self.hi - self.lo + 1:
            raise ZdinftyError("window dimensions do not match the degree range")
        if len(self.xmaps) != self.hi - self.lo:
            raise ZdinftyError("window x-maps do not match the degree range")

    def dim_at(self, d: int) -> int:
        if d < self.lo or d > self.hi:
            return 0
        return self.dims[d - self.lo]

    def xmap(self, d: int) -> tuple:
        """Matrix of multiplication by x from degree d to d+1."""
        if d < self.lo or d >= self.hi:
            return linalg.zeros(self.field, self.dim_at(d + 1), self.dim_at(d))
        return self.xmaps[d - self.lo]


def reconstruct_parts(wm: WindowModule, chart, p: int, q: int):
    """Recover (torsion summands, lattice, adapted basis) from a window model.

    ``chart`` is an invertible r x dim(hi) matrix identifying the top degree
    with k^r; the window must reach high enough that all torsion is dead and
    the filtration has stabilized at the top.  The lattice is the filtration
    of the chart images.  The torsion is the persistence module of the
    kernels K_d of the maps into the chart: one elder-rule sweep from low to
    high degree splits it into bars, each a chain v, xv, x^2 v, ... that x
    kills after its last degree.

    Returns the sorted torsion summands (n, a), the canonical GradedLattice,
    and ``basis``: per degree d, the matrix whose columns are the images in
    ``wm`` of the slots of the canonical model at d, in the slot order of
    ``objects.CObject``.  It commutes with x, the chart sends its top block
    to the canonical generator directions, and each block is invertible.
    """
    F = wm.field
    r = p + q
    if wm.dim_at(wm.hi) != r or (r > 0 and linalg.inverse(F, chart) is None):
        raise ZdinftyError("window chart is not an isomorphism onto k^r")

    # Maps into the localization chart, degree by degree from the top.
    to_chart = {wm.hi: chart}
    for d in range(wm.hi - 1, wm.lo - 1, -1):
        to_chart[d] = linalg.mm(F, to_chart[d + 1], wm.xmap(d), wm.dim_at(d + 1), wm.dim_at(d))
    degrees = range(wm.lo, wm.hi + 1)
    if r > 0:
        lat = from_filtration(F, p, q, [(d, linalg.transpose(to_chart[d])) for d in degrees])
    else:
        lat = GradedLattice(F, p, q, ())

    bars = []  # finished (birth, chain of vectors from the birth degree on)
    live = []  # bars alive at the previous degree, elder first
    for d in degrees:
        kernel = linalg.nullspace(F, to_chart[d], ncols=wm.dim_at(d))
        if d == wm.hi and kernel:
            raise ZdinftyError("torsion still alive at the top of the window")
        survivors, images = [], []
        for birth, chain in live:
            image = linalg.mat_vec(F, wm.xmap(d - 1), chain[-1])
            coeffs = linalg.coords_in_basis(F, images, image)
            if coeffs is None:
                chain.append(image)
                survivors.append((birth, chain))
                images.append(image)
                continue
            # The bar dies at d - 1.  Its elders are alive on its whole span;
            # subtracting the same combination of them at every degree makes
            # x kill its last vector.
            for (elder_birth, elder_chain), c in zip(survivors, coeffs):
                if F.is_zero(c):
                    continue
                for t in range(len(chain)):
                    elder = linalg.vec_scale(F, F.neg(c), elder_chain[birth - elder_birth + t])
                    chain[t] = linalg.vec_add(F, chain[t], elder)
            bars.append((birth, chain))
        for v in kernel:
            if linalg.coords_in_basis(F, images, v) is None:
                survivors.append((d, [v]))
                images.append(v)
        live = survivors
    bars.sort(key=lambda bar: (len(bar[1]), -bar[0]))

    # Lattice generators solved at their jump and pushed up, then the bars.
    cols = {d: [] for d in degrees}
    for e, direction in lat.generators():
        u = linalg.solve(F, to_chart[e], direction)
        for d in range(e, wm.hi + 1):
            cols[d].append(u)
            u = linalg.mat_vec(F, wm.xmap(d), u)
    for birth, chain in bars:
        for t, v in enumerate(chain):
            cols[birth + t].append(v)
    basis = {d: linalg.transpose(cols[d]) for d in degrees}
    return tuple((len(chain), -birth) for birth, chain in bars), lat, basis


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
    return WindowModule(field, lo, hi, dims, tuple(xmaps)), reps
