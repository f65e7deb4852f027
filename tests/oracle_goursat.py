"""Krull-Schmidt multiplicities of a torsion-free lattice from ranks alone.

Independent of the elder-rule sweep in ``decomp.decompose``.  By Goursat's
lemma the filtration S_d of V0 + V1 carries the persistence module
M_d = B_d / A_d, where A_d = S_d & V0 and B_d = pi0(S_d); each F[m, a] is a
bar [-a, m - a) of it.  The rank of M_s -> M_t is

    rho(s, t) = dim B_s - dim(B_s & A_t),

and the bars born at s that die at t number

    mu(s, t) = rho(s, t-1) - rho(s, t) - rho(s-1, t-1) + rho(s-1, t).

A dying bar adds one dimension to A_e and one to C_e = S_e & V1, so the
F0 (F1) summands born at e number the growth of A (C) at e less the deaths.
"""

from zdinfty import linalg

from oracle_membership import mat_scale
from oracle_slots import max_jump


def intersect_rowspaces(F, A, B):
    """Echelon basis of (row space of A, intersected with row space of B):
    the a-parts of the kernel of the stacked system a.A - b.B = 0."""
    if not A or not B:
        return ()
    n = len(A[0])
    stacked = linalg.transpose(tuple(A) + tuple(mat_scale(F, F.neg(F.one), B)))
    combos = tuple(ker[: len(A)] for ker in linalg.nullspace(F, stacked))
    return linalg.rref(F, linalg.mm(F, combos, A, len(A), n))[0]


def goursat_counts(L) -> dict:
    """Multiplicity of each factor label (as printed) of a lattice, nonzero
    counts only; a negative count would mean the ranks are inconsistent."""
    F, p = L.field, L.p
    if L.rank == 0:
        return {}
    lo, hi = L.jump_list[0], max_jump(L)
    unit = linalg.identity(F, L.rank)
    A, B, C = {}, {}, {}
    for d in range(lo - 1, hi + 1):
        S = L.subspace_at(d)
        A[d] = tuple(v[:p] for v in intersect_rowspaces(F, S, unit[:p]))
        C[d] = tuple(v[p:] for v in intersect_rowspaces(F, S, unit[p:]))
        B[d] = linalg.rref(F, [v[:p] for v in S])[0]

    def rho(s, t):
        return len(B[s]) - len(intersect_rowspaces(F, B[s], A[t]))

    counts, deaths = {}, {}
    for s in range(lo, hi + 1):
        for t in range(s + 1, hi + 1):
            mu = rho(s, t - 1) - rho(s, t) - rho(s - 1, t - 1) + rho(s - 1, t)
            counts[f"F[{t - s},{-s}]"] = mu
            deaths[t] = deaths.get(t, 0) + mu
    for e in range(lo, hi + 1):
        counts[f"F0[{-e}]"] = len(A[e]) - len(A[e - 1]) - deaths.get(e, 0)
        counts[f"F1[{-e}]"] = len(C[e]) - len(C[e - 1]) - deaths.get(e, 0)
    return {label: n for label, n in counts.items() if n}
