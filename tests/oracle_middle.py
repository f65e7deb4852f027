"""The middle of a class that glues torsion, built step by step from the
objects' degree queries.

``class_window`` assembles the window of ``ar._general_extension`` at each
listed degree e from two 0/1 ``module_xpower`` matrices, x from e - 1 to e
on Y and on X, copied row by row into one block matrix, and asks
``module_dim_at`` for every dimension it needs.  ``reconstruct_parts`` is
the bar sweep that multiplies the charts down and takes a chart nullspace
at every listed degree, with or without a lattice, and runs the kill step
(in its rref-of-nullspace form) at every listed degree, with or without a
live bar.  ``general_extension`` puts them together with the rank
certificate and returns (E, maps) as ``ar._general_extension`` does.
"""

from zdinfty import linalg
from zdinfty.ar import _frame_generators, morphism_from_degreewise
from zdinfty.errors import ZdinftyError
from zdinfty.lattice import GradedLattice, canonicalize
from zdinfty.objects import CObject, TorsionPart, module_xpower, slot_events, sum_places
from zdinfty.window import WindowModule

from oracle_bars import rref_of_kernel_kills
from oracle_membership import vec_scale


def class_window(c):
    """(window, chart, p, q) of a class: degreewise Y + X at the slot events
    of both, x twisted by the class on each torsion summand of X."""
    F = c.src.field
    X, Y = c.src, c.dst
    degrees = tuple(sorted(slot_events(X) | slot_events(Y)))
    p, q, (placeY, placeX) = sum_places([Y, X])
    gens = _frame_generators(c, p + q, placeY, placeX)
    dims = tuple(Y.module_dim_at(d) + X.module_dim_at(d) for d in degrees)
    xmaps = []
    for e in degrees[1:]:
        d = e - 1
        ny, nx = Y.module_dim_at(d), X.module_dim_at(d)
        rows = [list(row) + [F.zero] * nx for row in module_xpower(Y, d, d + 1)]
        rows += [[F.zero] * ny + list(row) for row in module_xpower(X, d, d + 1)]
        for t, (n, a) in enumerate(X.torsion.summands):
            if d == n - a - 1:
                col = ny + X.torsion_slot(t, d)
                for row, entry in zip(rows, c.tor[t]):
                    row[col] = F.add(row[col], entry)
        xmaps.append(tuple(map(tuple, rows)))
    chart = linalg.transpose([dir for _, dir in gens])
    return WindowModule(F, degrees, dims, tuple(xmaps)), chart, p, q


def reconstruct_parts(wm, chart, p, q):
    """(torsion summands, lattice, basis) of a window model, as
    ``window.reconstruct_parts`` returns them."""
    F = wm.field
    D, dims, xmaps = wm.degrees, wm.dims, wm.xmaps
    top = len(D) - 1
    r = p + q
    if dims[top] != r or (r > 0 and linalg.inverse(F, chart) is None):
        raise ZdinftyError("window chart is not an isomorphism onto k^r")

    to_chart = [chart] * len(D)
    for i in range(top - 1, -1, -1):
        to_chart[i] = linalg.mm(F, to_chart[i + 1], xmaps[i], dims[i + 1], dims[i])
    if r > 0:
        lat = canonicalize(F, [(d, v) for d, m in zip(D, to_chart) for v in zip(*m)], p, q)
    else:
        lat = GradedLattice(F, p, q, ())

    bars = []
    live = []
    for i in range(len(D)):
        kernel = linalg.nullspace(F, to_chart[i], ncols=dims[i])
        if i == top and kernel:
            raise ZdinftyError("torsion still alive at the top of the window")
        images = [linalg.mat_vec(F, xmaps[i - 1], chain[-1]) for _, chain in live]
        kills, pivots = rref_of_kernel_kills(F, images)
        young = live[::-1]
        for row, piv in zip(kills[::-1], pivots[::-1]):
            birth, chain = young[piv]
            for (elder_birth, elder_chain), c in zip(young[piv + 1:], row[piv + 1:]):
                if F.is_zero(c):
                    continue
                for t in range(len(chain)):
                    elder = vec_scale(F, c, elder_chain[birth - elder_birth + t])
                    chain[t] = linalg.vec_add(F, chain[t], elder)
            bars.append((birth, chain))
        dead = {len(live) - 1 - j for j in pivots}
        span = linalg.Echelon(F)
        for k, (_, chain) in enumerate(live):
            if k not in dead:
                chain.append(images[k])
                span.add(images[k])
        live = [bar for k, bar in enumerate(live) if k not in dead]
        live += [(i, [v]) for v in kernel if span.add(v)]

    def summand(bar):
        birth, chain = bar
        return D[birth + len(chain)] - D[birth], -D[birth]

    bars.sort(key=summand)

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


def general_extension(c):
    """(E, maps) of a class, with the rank certificate at every listed degree."""
    F = c.src.field
    X, Y = c.src, c.dst
    wm, chart, p, q = class_window(c)
    summands, lat, phi_inv = reconstruct_parts(wm, chart, p, q)
    E = CObject(F, TorsionPart(summands), lat)
    if any(
        E.module_dim_at(d) != n or linalg.rank(F, phi_inv[d]) != n
        for d, n in zip(wm.degrees, wm.dims)
    ):
        raise ZdinftyError("no equivariant isomorphism onto the canonical middle")

    def maps():
        phi = {d: linalg.inverse(F, phi_inv[d]) for d in wm.degrees}
        psi_in = {d: tuple(row[: Y.module_dim_at(d)] for row in phi[d]) for d in wm.degrees}
        psi_out = {d: phi_inv[d][Y.module_dim_at(d):] for d in wm.degrees}
        return morphism_from_degreewise(Y, E, psi_in), morphism_from_degreewise(E, X, psi_out)

    return E, maps
