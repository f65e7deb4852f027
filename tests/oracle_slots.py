"""Reference slot layout: the degree-d basis as ("F", j)/("T", i) labels.

Each degree-d piece of an object has the basis: adapted lattice generators
with jump <= d, then the torsion summands alive at d.  These functions name
every slot by a label and find positions by lookup, as the library did before
it indexed slots by position; the positional code in ``zdinfty.objects`` and
``zdinfty.homext`` is compared with them.
"""

from __future__ import annotations

from zdinfty import linalg
from zdinfty.errors import NotLatticeMorphism
from zdinfty.homext import ext_space
from zdinfty.lattice import adapted_coords
from zdinfty.objects import serre_twist


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
    tor = Y.torsion.xpower(F, d_from, d_to)
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
            moved = linalg.mat_vec(F, Y.torsion.xpower(F, e, d), m.ft[idx])
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
