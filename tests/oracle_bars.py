"""Reference torsion bars of a window model by rank inclusion-exclusion.

Independent of the elder-rule sweep in ``window.reconstruct_parts``: the
number of torsion summands alive on all of [s, t] is the rank of x^(t-s)
restricted to the kernel K_s of the map into the localization chart, and the
summands born at s and dying at t follow by inclusion-exclusion over those
ranks.  The lattice is the filtration of the chart images.  This is the
computation the sweep replaced; it costs O(w^3) products on a window of
width w.  It reads every degree of [lo, hi] through ``dim_at`` and
``xmap`` below, whichever degrees the window lists.

``bar_by_bar_kills`` is the elder rule as the sweep ran it before the
shared kill step ``linalg.elder_kills``: one bar at a time, a coordinate
solve against the surviving elders each.  It lists the kills elder first,
as ``elder_kills`` does.  ``rref_of_kernel_kills`` is the kill step in two
eliminations, the rref of the kernel of the columns listed youngest first,
so it lists the kills youngest first, each row read backwards.
"""

from bisect import bisect_right

from zdinfty import linalg
from zdinfty.lattice import GradedLattice, canonicalize
from zdinfty.objects import CObject, TorsionPart, module_xpower
from zdinfty.window import WindowModule

from oracle_membership import coords_in_basis


def dim_at(wm, d):
    """Dimension of ``wm`` at any degree d: the one at the last listed degree
    <= d, and 0 outside [lo, hi]."""
    if d < wm.degrees[0] or d > wm.degrees[-1]:
        return 0
    return wm.dims[bisect_right(wm.degrees, d) - 1]


def xmap(wm, d):
    """Matrix of multiplication by x on ``wm`` from any degree d to d+1."""
    if d < wm.degrees[0] or d >= wm.degrees[-1]:
        return linalg.zeros(wm.field, dim_at(wm, d + 1), dim_at(wm, d))
    i = bisect_right(wm.degrees, d + 1) - 1
    if wm.degrees[i] == d + 1:
        return wm.xmaps[i - 1]
    return linalg.identity(wm.field, wm.dims[i])


def _xpower(wm, d_from, d_to):
    F = wm.field
    out = linalg.identity(F, dim_at(wm, d_from))
    for d in range(d_from, d_to):
        out = linalg.mm(F, xmap(wm, d), out, dim_at(wm, d), dim_at(wm, d_from))
    return out


def reference_parts(wm, chart, p, q):
    """(sorted torsion summands (n, a), GradedLattice) of a window model."""
    F = wm.field
    r = p + q
    lo, hi = wm.degrees[0], wm.degrees[-1]
    to_chart = {hi: chart}
    for d in range(hi - 1, lo - 1, -1):
        to_chart[d] = linalg.mm(F, to_chart[d + 1], xmap(wm, d), dim_at(wm, d + 1), dim_at(wm, d))
    gens = []
    kernels = {}
    for d in range(lo, hi + 1):
        cols = [tuple(to_chart[d][i][j] for i in range(r)) for j in range(dim_at(wm, d))]
        gens += [(d, col) for col in cols]
        kernels[d] = linalg.nullspace(F, to_chart[d], ncols=dim_at(wm, d))
    lat = canonicalize(F, gens, p, q) if r > 0 else GradedLattice(F, p, q, ())

    def rho(s, t):
        # number of torsion summands alive on all of [s, t]
        if s < lo or t > hi or t < s or not kernels[s]:
            return 0
        power = _xpower(wm, s, t)
        return linalg.rank(F, [linalg.mat_vec(F, power, v) for v in kernels[s]])

    summands = []
    for s in range(lo, hi + 1):
        for t in range(s, hi + 1):
            n = rho(s, t) - rho(s - 1, t) - rho(s, t + 1) + rho(s - 1, t + 1)
            assert n >= 0, "inconsistent torsion ranks in window model"
            summands.extend([(t - s + 1, -s)] * n)
    return tuple(sorted(summands)), lat


def contiguous(wm):
    """The window listing every degree of [lo, hi] that ``wm`` describes."""
    degrees = tuple(range(wm.degrees[0], wm.degrees[-1] + 1))
    return WindowModule(
        wm.field,
        degrees,
        tuple(dim_at(wm, d) for d in degrees),
        tuple(xmap(wm, d) for d in degrees[:-1]),
    )


def checked_reconstruct(real, seen):
    """Wrap ``reconstruct_parts``: every call must agree with the reference,
    and its basis, held constant from each listed degree to the next, must
    be an x-equivariant isomorphism from the canonical model onto the window
    at every degree of [lo, hi] that the charts carry to the identity.  Each
    checked window is appended to ``seen``."""

    def wrapper(wm, chart, p, q):
        summands, lat, basis = real(wm, chart, p, q)
        assert (summands, lat) == reference_parts(wm, chart, p, q)
        F = wm.field
        E = CObject(F, TorsionPart(summands), lat)
        lo, hi = wm.degrees[0], wm.degrees[-1]
        at = {d: basis[max(e for e in wm.degrees if e <= d)] for d in range(lo, hi + 1)}
        for d in range(lo, hi + 1):
            n = dim_at(wm, d)
            assert E.module_dim_at(d) == n
            assert linalg.inverse(F, at[d]) is not None
            if d < hi:
                n1 = dim_at(wm, d + 1)
                assert linalg.mm(F, xmap(wm, d), at[d], n, n) == linalg.mm(
                    F, at[d + 1], module_xpower(E, d, d + 1), n1, n
                )
        assert linalg.mm(F, chart, basis[hi], p + q, p + q) == E.lattice.generator_matrix()
        seen.append(wm)
        return summands, lat, basis

    return wrapper


def bar_by_bar_kills(F, columns):
    """The dying bars among live bars with these columns, elder first, one
    bar at a time: a bar dies when its column is a combination of the
    columns of its surviving elders.  Returns (bar, row) per dying bar,
    elder first, with bars indexed elder first: the row is one at the bar,
    minus that combination's coefficient at each surviving elder, and zero
    elsewhere, so the columns send it to zero."""
    survivors, images, kills = [], [], []
    for j, column in enumerate(columns):
        coeffs = coords_in_basis(F, images, column)
        if coeffs is None:
            survivors.append(j)
            images.append(column)
            continue
        row = [F.zero] * len(columns)
        row[j] = F.one
        for i, c in zip(survivors, coeffs):
            row[i] = F.neg(c)
        kills.append((j, tuple(row)))
    return kills


def rref_of_kernel_kills(F, columns):
    """``linalg.elder_kills`` as two eliminations: the rref of the
    ``nullspace`` basis of the columns listed youngest first, and its
    pivots."""
    n = len(columns)
    return linalg.rref(F, linalg.nullspace(F, linalg.transpose(columns[::-1]), ncols=n))
