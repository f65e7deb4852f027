"""The bar sweep behind extension middles whose class glues torsion.

A window module records a graded module at listed degrees, with x the
identity between them; ``ar._general_extension`` assembles one for each
middle whose class glues torsion of X into Y, at the slot events of its two
ends.  Together with a chart identifying the top degree with the ambient
space k^r this is enough to recover the canonical torsion/lattice data of a
finitely generated object: the lattice filtration is the image in the
localization, and the torsion summands are the bars of the kernel's
persistence module, found by one elder-rule sweep over the listed degrees
that also yields an isomorphism onto the canonical model.  Its deaths come
from ``linalg.elder_kills``, the step the Krull-Schmidt sweep in
``decomp`` takes too.  A persistence module changes only at its critical
values, so listing those is enough, and then the cost does not grow with
the length of a bar.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import ZdinftyError
from .fields import FieldSpec
from .lattice import GradedLattice, canonicalize


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


def reconstruct_parts(wm: WindowModule, chart, p: int, q: int):
    """Recover (torsion summands, lattice, adapted basis) from a window model.

    ``chart`` is an invertible r x dims[-1] matrix identifying the top degree
    with k^r; the window must reach high enough that all torsion is dead and
    the filtration has stabilized at the top.  The lattice is the filtration
    of the chart images.  The torsion is the persistence module of the
    kernels K_d of the maps into the chart: one elder-rule sweep over the
    listed degrees, from low to high, splits it into bars, each a chain of
    vectors v, x v, ... , one per listed degree, that x kills after its
    last one: a bar dies when its x-image lies in the span of its elders'
    images, ``linalg.elder_kills`` gives the combination of them that x
    kills, indexed like the live bars, elder first, and kernel vectors
    outside the survivors' images start new ones.  A dying bar's chain is
    then that combination of the live bars' vectors: one product
    (``linalg.mat_vec``) of its kill row per dying bar and listed degree of
    its chain, as the Krull-Schmidt sweep combines its bars with one ``mm``.
    A bar born at D[b] whose chain has c entries dies at D[b + c], so its
    length is D[b + c] - D[b].

    Each piece of the window is built once per listed degree.  Each x-map
    is read once there, on the live bars' last vectors; the charts and their
    kernels are built only when the window has a lattice (with none, every
    piece is its own kernel); and one ``linalg.Echelon`` of the live bars'
    images, elder first, names the dying bars and then the births.  So the
    kill rows are eliminated only at a listed degree where some live bars
    die and others survive: where all die, every image is zero and each
    bar dies on its own.

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
    if dims[top] != r or (r > 0 and linalg.rank(F, chart) != r):
        raise ZdinftyError("window chart is not an isomorphism onto k^r")

    # With no lattice every piece is its own kernel.  The general path gives
    # the same pieces; this branch is kept because taking it out made a wing
    # middle 9 % and ar-mesh 3 % slower (CHANGES.md, the fast-path table).
    if r > 0:
        # Maps into the localization chart, listed degree by listed degree from the top.
        to_chart = [chart] * len(D)
        for i in range(top - 1, -1, -1):
            to_chart[i] = linalg.mm(F, to_chart[i + 1], xmaps[i], dims[i + 1], dims[i])
        lat = canonicalize(F, [(d, v) for d, m in zip(D, to_chart) for v in zip(*m)], p, q)
        kernels = [linalg.nullspace(F, m, ncols=n) for m, n in zip(to_chart, dims)]
    else:
        lat = GradedLattice(F, p, q, ())
        kernels = [linalg.identity(F, n) for n in dims]
    if kernels[top]:
        raise ZdinftyError("torsion still alive at the top of the window")

    bars = []  # finished (birth index, chain of vectors from the birth on)
    live = []  # bars alive at the previous listed degree, elder first
    for i, kernel in enumerate(kernels):
        images = [linalg.mat_vec(F, xmaps[i - 1], chain[-1]) for _, chain in live]
        # A bar dies when its image lies in the span of its elders' images;
        # the span of the survivors' images is then the span of them all.
        span = linalg.Echelon(F)
        dead = [not span.add(v) for v in images]
        if all(dead):
            # Every image is zero, so each bar dies on its own (its kill row
            # is one at it and zero elsewhere) and the whole kernel is born.
            # Kept: it saves the kill elimination that
            # ``tests/test_lazy_ars.py`` counts (CHANGES.md, the fast-path table).
            bars += live
            live = [(i, [v]) for v in kernel]
            continue
        kills, dying = linalg.elder_kills(F, images) if any(dead) else ((), ())
        # Each dying bar, elder first, dies at D[i] - 1.  Its elders are alive
        # on its whole span, and its kill row is one at it, zero past it and
        # zero at the other dying bars: that combination of the bar's and its
        # elders' vectors, one product per listed degree of its chain, makes
        # x kill its last vector.
        for row, j in zip(kills, dying):
            birth, kill = live[j][0], row[:j + 1]
            at = zip(*[chain[birth - b:] for b, chain in live[:j + 1]])  # per listed degree
            bars.append((birth, [linalg.mat_vec(F, linalg.transpose(vs), kill) for vs in at]))
        # The survivors go on; kernel vectors outside their images are born.
        survivors = []
        for bar, image, died in zip(live, images, dead):
            if not died:
                bar[1].append(image)
                survivors.append(bar)
        live = survivors + [(i, [v]) for v in kernel if span.add(v)]

    def summand(bar):
        birth, chain = bar
        return D[birth + len(chain)] - D[birth], -D[birth]

    bars.sort(key=summand)

    # Lattice generators solved at their jump and pushed up, then the bars.
    cols = [[] for _ in D]
    # With no lattice there is no generator to solve; the guard is kept
    # because a wing middle ran 3 % slower without it (CHANGES.md, the
    # fast-path table).
    if r > 0:
        index = {d: i for i, d in enumerate(D)}
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
