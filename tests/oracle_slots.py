"""Reference slot layout and lattice-to-torsion transport.

Each degree-d piece of an object has the basis: adapted lattice generators
with jump <= d, then the torsion summands alive at d.  These functions name
every slot by a ("F", j)/("T", i) label and find positions by lookup, as the
library did before it indexed slots by position; the positional code in
``zdinfty.objects`` and ``zdinfty.homext`` is compared with them.

The transport references are the library's code from before it read adapted
coordinates off the inverse generator matrix and moved each lattice
generator's torsion image with one gather: ``adapted_coords`` solves for the
coordinates, the x-power on torsion slots is a dense 0/1 matrix, and
``compose``, ``serre_twist_morphism`` and ``class_after_morphism`` sum the
moved images generator by generator.  ``hom_kx_space`` solves for all
rank x rank unknowns instead of the block-diagonal ones, with each step's
annihilator a nullspace of its echelon basis.

The degree bounds ``max_jump``, ``min_degree``, ``max_degree`` and
``window_bounds`` sized the library's windows before they listed only slot
events; the tests still read them.
"""

from __future__ import annotations

from zdinfty import linalg
from zdinfty.errors import NotLatticeMorphism, ZdinftyError
from zdinfty.homext import ext_space, morphism_from_parts
from zdinfty.objects import serre_twist

from oracle_membership import coords_in_basis


def offdiag_blocks(A, X, Y) -> tuple:
    """The off-diagonal blocks (h01, h10) of a full Y.rank x X.rank matrix,
    entry by entry: h01[i][k] = A[Y.p + i][k], Y's type-1 rows on X's
    type-0 columns, and h10[i][k] = A[i][X.p + k], Y's type-0 rows on X's
    type-1 columns."""
    h01 = tuple(tuple(A[Y.p + i][k] for k in range(X.p)) for i in range(Y.q))
    h10 = tuple(tuple(A[i][X.p + k] for k in range(X.q)) for i in range(Y.p))
    return h01, h10


def max_jump(L) -> int:
    """The last jump of a lattice."""
    return L.steps[-1][0]


def min_degree(T):
    """The first degree where a torsion part is alive; None when it is zero."""
    return min((-a for _, a in T.summands), default=None)


def max_degree(T):
    """The last degree where a torsion part is alive; None when it is zero."""
    return max((-a + n - 1 for n, a in T.summands), default=None)


def window_bounds(X):
    """A degree window (lo, hi) on which X is fully visible and stable at the
    top: lo is the least jump or torsion degree, and hi is one past the
    largest, so the torsion is dead at hi; (0, 1) for the zero object.  The
    library's windows list ``objects.slot_events`` instead."""
    lows = [j for j, _ in X.lattice.steps]
    highs = list(lows)
    td = min_degree(X.torsion)
    if td is not None:
        lows.append(td)
        highs.append(max_degree(X.torsion))
    if not lows:
        return (0, 1)
    return (min(lows), max(highs) + 1)


def torsion_xpower(T, F, d_from: int, d_to: int) -> tuple:
    """Multiplication by x^(d_to - d_from) on the torsion slots, for
    d_to >= d_from: a 1 where the same summand is alive at both degrees."""
    src = T.slots_at(d_from)
    return tuple(tuple(F.one if i == j else F.zero for j in src) for i in T.slots_at(d_to))


def adapted_coords(L, v, degree: int):
    """Coefficients of ``v`` in the adapted generators with jump <= degree,
    by a solve; None when ``v`` is not in S_degree."""
    F = L.field
    gens = L.generators()
    active = [i for i, (j, _) in enumerate(gens) if j <= degree]
    coeffs = coords_in_basis(F, tuple(gens[i][1] for i in active), v)
    if coeffs is None:
        return None
    out = [F.zero] * len(gens)
    for i, c in zip(active, coeffs):
        out[i] = c
    return out


def module_slots_at(X, d: int) -> tuple:
    """Degree-d basis labels: ('F', generator index) then ('T', summand index)."""
    gens = X.lattice.generators()
    out = [("F", j) for j, (jump, _) in enumerate(gens) if jump <= d]
    out += [("T", i) for i in X.torsion.slots_at(d)]
    return tuple(out)


def module_xpower(Y, d_from: int, d_to: int) -> tuple:
    """Multiplication by x^(d_to-d_from) on the module slots of Y."""
    F = Y.field
    src = module_slots_at(Y, d_from)
    dst = module_slots_at(Y, d_to)
    pos = {lab: k for k, lab in enumerate(dst)}
    tor = torsion_xpower(Y.torsion, F, d_from, d_to)
    tor_src = Y.torsion.slots_at(d_from)
    tor_dst = Y.torsion.slots_at(d_to)
    rows = [[F.zero] * len(src) for _ in dst]
    for col, lab in enumerate(src):
        kind, idx = lab
        if kind == "F":
            rows[pos[lab]][col] = F.one
        else:
            scol = tor_src.index(idx)
            for srow, tidx in enumerate(tor_dst):
                c = tor[srow][scol]
                if not F.is_zero(c):
                    rows[pos[("T", tidx)]][col] = c
    return tuple(tuple(r) for r in rows)


def morphism_degreewise(m, d: int) -> tuple:
    """Matrix of the morphism on the degree-d module slots."""
    F = m.src.field
    X, Y = m.src, m.dst
    src = module_slots_at(X, d)
    dst = module_slots_at(Y, d)
    pos = {lab: k for k, lab in enumerate(dst)}
    rows = [[F.zero] * len(src) for _ in dst]
    full = m.full_matrix()
    x_gens = X.lattice.generators()
    tt = m.tt_at(d)
    t_src = X.torsion.slots_at(d)
    t_dst = Y.torsion.slots_at(d)
    for col, lab in enumerate(src):
        kind, idx = lab
        if kind == "F":
            e, dir = x_gens[idx]
            w = linalg.mat_vec(F, full, dir)
            gamma = adapted_coords(Y.lattice, w, d)
            if gamma is None:
                raise NotLatticeMorphism("morphism does not preserve the lattice")
            for t, c in enumerate(gamma):
                if not F.is_zero(c):
                    rows[pos[("F", t)]][col] = c
            moved = linalg.mat_vec(F, torsion_xpower(Y.torsion, F, e, d), m.ft[idx])
            for srow, tidx in enumerate(t_dst):
                c = moved[srow]
                if not F.is_zero(c):
                    rows[pos[("T", tidx)]][col] = F.add(rows[pos[("T", tidx)]][col], c)
        else:
            scol = t_src.index(idx)
            for srow, tidx in enumerate(t_dst):
                c = tt[srow][scol]
                if not F.is_zero(c):
                    rows[pos[("T", tidx)]][col] = c
    return tuple(tuple(r) for r in rows)


def lattice_vector(X, d: int, v) -> tuple:
    """Ambient vector of the ("F", j) coordinates of a degree-d slot vector."""
    F = X.field
    gens = X.lattice.generators()
    amb = [F.zero] * X.rank
    for c, (kind, j) in zip(v, module_slots_at(X, d)):
        if kind == "F":
            amb = [F.add(a, F.mul(c, b)) for a, b in zip(amb, gens[j][1])]
    return tuple(amb)


def serre_twist_class(c):
    """The twist of an extension class, finding each slot by its label."""
    F = c.src.field
    X, Y = c.src, c.dst
    VX, VY = serre_twist(X), serre_twist(Y)
    tor = []
    y_gens = Y.lattice.generators()
    for i, (n, a) in enumerate(X.torsion.summands):
        h = n - a
        amb = [F.zero] * Y.rank
        tcoeffs = {}
        for pos, (kind, idx) in enumerate(module_slots_at(Y, h)):
            coeff = c.tor[i][pos]
            if kind == "F":
                amb = [F.add(u, F.mul(coeff, w)) for u, w in zip(amb, y_gens[idx][1])]
            else:
                tcoeffs[idx] = coeff
        swapped = tuple(amb[Y.p + t] if t < Y.q else amb[t - Y.q] for t in range(Y.rank))
        gamma = adapted_coords(VY.lattice, swapped, h + 1)
        vec = [
            gamma[idx] if kind == "F" else tcoeffs.get(idx, F.zero)
            for kind, idx in module_slots_at(VY, h + 1)
        ]
        tor.append(tuple(vec))
    return ext_space(VX, VY).reduce(c.h10, c.h01, tuple(tor))


def compose(g, f):
    """g after f, each lattice generator's torsion image summed term by term."""
    F = f.src.field
    X, Y, Z = f.src, f.dst, g.dst
    a00 = linalg.mm(F, g.a00, f.a00, Y.p, X.p)
    a11 = linalg.mm(F, g.a11, f.a11, Y.q, X.q)
    prod = linalg.mm(F, g.tt, f.tt, len(Y.torsion.summands), len(X.torsion.summands))
    tt = tuple(
        tuple(
            c if Z.torsion.alive(k, -a) else F.zero
            for c, (_, a) in zip(row, X.torsion.summands)
        )
        for k, row in enumerate(prod)
    )
    ft = []
    y_gens = Y.lattice.generators()
    full_f = f.full_matrix()
    for j, (e, dir) in enumerate(X.lattice.generators()):
        vec = list(linalg.mat_vec(F, g.tt_at(e), f.ft[j]))
        if not vec:
            vec = [F.zero] * Z.torsion.dim_at(e)
        gamma = adapted_coords(Y.lattice, linalg.mat_vec(F, full_f, dir), e)
        if gamma is None:
            raise NotLatticeMorphism("composition source map does not preserve the lattice")
        for t, (et, _) in enumerate(y_gens):
            c = gamma[t]
            if F.is_zero(c):
                continue
            moved = linalg.mat_vec(F, torsion_xpower(Z.torsion, F, et, e), g.ft[t])
            for s in range(len(vec)):
                vec[s] = F.add(vec[s], F.mul(c, moved[s]))
        ft.append(tuple(vec))
    return morphism_from_parts(X, Z, a00, a11, tt, tuple(ft))


def serre_twist_morphism(f):
    """The twist of a morphism, each twisted generator's torsion image summed
    term by term."""
    F = f.src.field
    X, Y = f.src, f.dst
    VX, VY = serre_twist(X), serre_twist(Y)
    p = X.p
    ft = []
    for ep, dirp in VX.lattice.generators():
        dir = tuple(dirp[VX.p + i] if i < p else dirp[i - p] for i in range(X.rank))
        gamma = adapted_coords(X.lattice, dir, ep - 1)
        if gamma is None:
            raise ZdinftyError("twisted generator escapes the original lattice")
        vec = [F.zero] * VY.torsion.dim_at(ep)
        for j, (e_j, _) in enumerate(X.lattice.generators()):
            c = gamma[j]
            if F.is_zero(c):
                continue
            moved = linalg.mat_vec(F, torsion_xpower(Y.torsion, F, e_j, ep - 1), f.ft[j])
            for s in range(len(vec)):
                vec[s] = F.add(vec[s], F.mul(c, moved[s]))
        ft.append(tuple(vec))
    return morphism_from_parts(VX, VY, f.a11, f.a00, f.tt, tuple(ft))


def class_after_morphism(g, f):
    """A class in Ext(X, Y) precomposed with f: X' -> X, the torsion classes
    dragged in by the lattice generators of X' summed term by term."""
    F = f.src.field
    Xp, X, Y = f.src, g.src, g.dst
    h01 = linalg.mm(F, g.h01, f.a00, X.p, Xp.p)
    h10 = linalg.mm(F, g.h10, f.a11, X.q, Xp.q)
    if Xp.rank > 0 and Y.rank > 0 and any(any(vec) for vec in f.ft):
        wcols = []
        for j, (e, _) in enumerate(Xp.lattice.generators()):
            w = [F.zero] * Y.rank
            for c, i in zip(f.ft[j], X.torsion.slots_at(e)):
                if F.is_zero(c):
                    continue
                n_i, a_i = X.torsion.summands[i]
                amb = lattice_vector(Y, n_i - a_i, g.tor[i])
                w = [F.add(wt, F.mul(c, at)) for wt, at in zip(w, amb)]
            wcols.append(tuple(w))
        Ginv = Xp.lattice.generator_inverse
        D = linalg.mm(F, linalg.transpose(wcols), Ginv, len(wcols), len(wcols))
        d01, d10 = offdiag_blocks(D, Xp, Y)
        h01 = linalg.mat_add(F, h01, d01)
        h10 = linalg.mat_add(F, h10, d10)
    tor = []
    for ip, (n_p, a_p) in enumerate(Xp.torsion.summands):
        acc = [F.zero] * Y.module_dim_at(n_p - a_p)
        for i, (n_i, a_i) in enumerate(X.torsion.summands):
            c = f.tt[i][ip]
            if F.is_zero(c):
                continue
            moved = linalg.mat_vec(F, module_xpower(Y, n_i - a_i, n_p - a_p), g.tor[i])
            for s in range(len(acc)):
                acc[s] = F.add(acc[s], F.mul(c, moved[s]))
        tor.append(tuple(acc))
    return ext_space(Xp, Y).reduce(h01, h10, tuple(tor))


def hom_kx_space(X, Y) -> tuple:
    """Constant matrices A with A S_e(X) inside S_e(Y) for all e: the kernel
    of the filtration constraints on all rank x rank unknowns."""
    F = X.field
    r, rr = X.rank, Y.rank
    if r == 0 or rr == 0:
        return ()
    rows = []
    for e, dir in X.lattice.generators():
        for u in linalg.nullspace(F, Y.lattice.subspace_at(e), rr):
            row = [F.zero] * (rr * r)
            for i in range(rr):
                for k in range(r):
                    if not F.is_zero(u[i]) and not F.is_zero(dir[k]):
                        row[i * r + k] = F.add(row[i * r + k], F.mul(u[i], dir[k]))
            if any(row):
                rows.append(tuple(row))
    kernel = linalg.nullspace(F, rows) if rows else linalg.identity(F, rr * r)
    return tuple(tuple(tuple(vec[i * r + k] for k in range(r)) for i in range(rr)) for vec in kernel)
