"""Reference torsion bars of a window model by rank inclusion-exclusion.

Independent of the elder-rule sweep in ``window.reconstruct_parts``: the
number of torsion summands alive on all of [s, t] is the rank of x^(t-s)
restricted to the kernel K_s of the map into the localization chart, and the
summands born at s and dying at t follow by inclusion-exclusion over those
ranks.  The lattice is the filtration of the chart images.  This is the
computation the sweep replaced; it costs O(w^3) products on a window of
width w.  It reads every degree of [lo, hi] through ``WindowModule.dim_at``
and ``xmap``, whichever degrees the window lists.
"""

from zdinfty import linalg
from zdinfty.lattice import GradedLattice, from_filtration
from zdinfty.objects import CObject, TorsionPart, model_of
from zdinfty.window import WindowModule


def _xpower(wm, d_from, d_to):
    F = wm.field
    out = linalg.identity(F, wm.dim_at(d_from))
    for d in range(d_from, d_to):
        out = linalg.mm(F, wm.xmap(d), out, wm.dim_at(d), wm.dim_at(d_from))
    return out


def reference_parts(wm, chart, p, q):
    """(sorted torsion summands (n, a), GradedLattice) of a window model."""
    F = wm.field
    r = p + q
    to_chart = {wm.hi: chart}
    for d in range(wm.hi - 1, wm.lo - 1, -1):
        to_chart[d] = linalg.mm(F, to_chart[d + 1], wm.xmap(d), wm.dim_at(d + 1), wm.dim_at(d))
    pieces = []
    kernels = {}
    for d in range(wm.lo, wm.hi + 1):
        cols = [tuple(to_chart[d][i][j] for i in range(r)) for j in range(wm.dim_at(d))]
        pieces.append((d, cols))
        kernels[d] = linalg.nullspace(F, to_chart[d], ncols=wm.dim_at(d))
    lat = from_filtration(F, p, q, pieces) if r > 0 else GradedLattice(F, p, q, ())

    def rho(s, t):
        # number of torsion summands alive on all of [s, t]
        if s < wm.lo or t > wm.hi or t < s or not kernels[s]:
            return 0
        power = _xpower(wm, s, t)
        return linalg.rank(F, [linalg.mat_vec(F, power, v) for v in kernels[s]])

    summands = []
    for s in range(wm.lo, wm.hi + 1):
        for t in range(s, wm.hi + 1):
            n = rho(s, t) - rho(s - 1, t) - rho(s, t + 1) + rho(s - 1, t + 1)
            assert n >= 0, "inconsistent torsion ranks in window model"
            summands.extend([(t - s + 1, -s)] * n)
    return tuple(sorted(summands)), lat


def contiguous(wm):
    """The window listing every degree of [lo, hi] that ``wm`` describes."""
    degrees = tuple(range(wm.lo, wm.hi + 1))
    return WindowModule(
        wm.field, degrees, tuple(map(wm.dim_at, degrees)), tuple(map(wm.xmap, degrees[:-1]))
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
        model, model_chart = model_of(E, wm.lo, wm.hi)
        at = {d: basis[max(e for e in wm.degrees if e <= d)] for d in range(wm.lo, wm.hi + 1)}
        for d in range(wm.lo, wm.hi + 1):
            n = wm.dim_at(d)
            assert model.dim_at(d) == n
            assert linalg.inverse(F, at[d]) is not None
            if d < wm.hi:
                n1 = wm.dim_at(d + 1)
                assert linalg.mm(F, wm.xmap(d), at[d], n, n) == linalg.mm(
                    F, at[d + 1], model.xmap(d), n1, n
                )
        assert linalg.mm(F, chart, basis[wm.hi], p + q, p + q) == model_chart
        seen.append(wm)
        return summands, lat, basis

    return wrapper
