"""Membership oracles that do not read the inverse generator matrix.

``kx_membership`` decides v in the module generated by x^jump_j * dir_j by
solving for bounded-degree polynomial coefficients c_j(x), one linear
equation per ambient coordinate per degree.  ``step_membership`` and
``step_degree`` reduce v against the echelon basis of each step, as
``lattice.membership`` and ``lattice.degree_of`` did before they read the
adapted coordinates.  ``reduce_against`` subtracts pivot components row by
row, ``vec_scale`` and ``mat_scale`` scale entry by entry, ``in_span``
reduces against an echelon basis and ``coords_in_basis`` solves for
coefficients; the library dropped all of them once nothing in it called
them (it reduces and combines by products, ``linalg.mat_vec``), and the
oracles and tests still do, by their own scalar loops.  So did it drop
``contains``, the lattice inclusion test, which here tests each generator
with ``step_membership``.
The ``inverse_*`` functions answer the filtration queries, the lattice meet
and the constant-matrix solve of Hom the way the library did before it read
the dual rows up to scale: from the exact rows of ``generator_inverse``.
"""

from zdinfty import linalg
from zdinfty.errors import DimensionMismatch
from zdinfty.fields import check_same_field
from zdinfty.lattice import GradedVector, canonicalize


def reduce_against(F, basis, pivots, v) -> tuple:
    """Subtract the pivot components of an echelon basis from ``v``, one row
    at a time: the canonical coset representative of ``v`` modulo the span
    of ``basis``, zero exactly when ``v`` lies in that span."""
    w = list(v)
    for row, col in zip(basis, pivots):
        c = w[col]
        if c:
            for j, a in enumerate(row):
                if a:
                    w[j] = F.sub(w[j], F.mul(c, a))
    return tuple(w)


def vec_scale(F, c, v) -> tuple:
    """The vector ``v`` with every entry multiplied by ``c``."""
    return tuple(F.mul(c, a) for a in v)


def in_span(F, basis, pivots, v) -> bool:
    """Whether ``v`` lies in the span of an echelon basis with these pivots."""
    return not any(reduce_against(F, basis, pivots, v))


def coords_in_basis(F, basis, v):
    """Coefficients expressing ``v`` in ``basis`` (rows), or None."""
    if not basis:
        return () if not any(v) else None
    return linalg.solve(F, linalg.transpose(basis), v)


def mat_scale(F, c, A):
    """The matrix ``A`` with every entry multiplied by ``c``."""
    return tuple(vec_scale(F, c, row) for row in A)


def _in_step(F, basis, v) -> bool:
    rows, pivots = linalg.rref(F, basis)
    return in_span(F, rows, pivots, v)


def step_membership(L, v) -> bool:
    """Whether the GradedVector ``v`` lies in S_(v.degree) of ``L``."""
    return _in_step(L.field, L.subspace_at(v.degree), v.coords)


def step_degree(L, v):
    """The first jump whose step spans ``v``, or None when ``v`` is zero."""
    if not any(v):
        return None
    return next(d for d, basis in L.steps if _in_step(L.field, basis, v))


def contains(outer, inner) -> bool:
    """Whether the lattice ``inner`` lies in ``outer``: whether each of its
    generators x^jump * dir does."""
    check_same_field(outer.field, inner.field)
    if (outer.p, outer.q) != (inner.p, inner.q):
        raise DimensionMismatch("lattices in different ambient spaces")
    return all(
        step_membership(outer, GradedVector(jump, dir)) for jump, dir in inner.generators()
    )


def kx_membership(field, gens, degree, coords, max_coeff_degree=None):
    """Whether x^degree * coords = sum c_j(x) x^jump_j dir_j is solvable."""
    if all(field.is_zero(c) for c in coords):
        return True
    if not gens:
        return False
    r = len(coords)
    if max_coeff_degree is None:
        max_coeff_degree = degree - min(j for j, _ in gens)
    if max_coeff_degree < 0:
        return False
    # unknowns: c[j][t] for generator j, coefficient of x^t, 0 <= t <= D
    D = max_coeff_degree
    nunk = len(gens) * (D + 1)
    degrees = sorted({j + t for j, _ in gens for t in range(D + 1)} | {degree})
    rows = []
    rhs = []
    for delta in degrees:
        for i in range(r):
            row = [field.zero] * nunk
            nonzero = False
            for jdx, (jump, dir) in enumerate(gens):
                t = delta - jump
                if 0 <= t <= D and not field.is_zero(dir[i]):
                    row[jdx * (D + 1) + t] = dir[i]
                    nonzero = True
            target = coords[i] if delta == degree else field.zero
            if nonzero or not field.is_zero(target):
                rows.append(row)
                rhs.append(target)
    return _solvable(field, rows, rhs)


def _solvable(field, rows, rhs):
    work = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(work[0]) if work else 0
    rank_row = 0
    for col in range(ncols - 1):
        piv = None
        for i in range(rank_row, len(work)):
            if not field.is_zero(work[i][col]):
                piv = i
                break
        if piv is None:
            continue
        work[rank_row], work[piv] = work[piv], work[rank_row]
        inv = field.inv(work[rank_row][col])
        work[rank_row] = [field.mul(inv, a) for a in work[rank_row]]
        for i in range(len(work)):
            if i != rank_row and not field.is_zero(work[i][col]):
                c = work[i][col]
                work[i] = [
                    field.sub(a, field.mul(c, b))
                    for a, b in zip(work[i], work[rank_row])
                ]
        rank_row += 1
    for row in work[rank_row:]:
        if not field.is_zero(row[-1]):
            return False
    for i in range(rank_row):
        if all(field.is_zero(a) for a in work[i][:-1]) and not field.is_zero(work[i][-1]):
            return False
    return True


def inverse_annihilator(L, d):
    """The rows of ``generator_inverse`` past ``dim S_d``."""
    return L.generator_inverse[L.dim_at(d):]


def _inverse_coords(L, v):
    if len(v) != L.rank:
        raise DimensionMismatch(f"vector length {len(v)}, ambient rank {L.rank}")
    return linalg.mat_vec(L.field, L.generator_inverse, v)


def inverse_membership(L, v) -> bool:
    """Whether the GradedVector ``v`` has no adapted coordinate past
    ``dim S_(v.degree)``."""
    return not any(_inverse_coords(L, v.coords)[L.dim_at(v.degree):])


def inverse_degree(L, v):
    """The jump of the last generator on which ``v`` has a nonzero adapted
    coordinate, or None when ``v`` is zero."""
    gamma = _inverse_coords(L, v)
    last = max((k for k, c in enumerate(gamma) if c), default=None)
    return None if last is None else L.generators()[last][0]


def inverse_intersect(L1, L2):
    """The meet: at each jump of either lattice, the common kernel of both
    annihilators."""
    F, r = L1.field, L1.rank
    degrees = sorted({j for j, _ in L1.steps} | {j for j, _ in L2.steps})
    gens = [
        (d, w)
        for d in degrees
        for w in linalg.nullspace(F, inverse_annihilator(L1, d) + inverse_annihilator(L2, d), r)
    ]
    return canonicalize(F, gens, L1.p, L1.q)


def inverse_constant_matrix_solutions(X, Y):
    """Block-diagonal constant matrices (a00, a11) with u . A dir_j = 0 for
    each u annihilating S_(e_j)(Y), as ``homext._constant_matrix_solutions``
    returns them."""
    F = X.field
    if X.rank == 0 or Y.rank == 0:
        return ()
    p, q, pp, qq = X.p, X.q, Y.p, Y.q
    rows = []
    for e, dir in X.lattice.generators():
        for u in inverse_annihilator(Y.lattice, e):
            row = [F.mul(a, b) for a in u[:pp] for b in dir[:p]]
            row += [F.mul(a, b) for a in u[pp:] for b in dir[p:]]
            if any(row):
                rows.append(tuple(row))
    n00 = pp * p
    kernel = linalg.nullspace(F, rows) if rows else linalg.identity(F, n00 + qq * q)
    return tuple(
        (
            tuple(vec[i * p:(i + 1) * p] for i in range(pp)),
            tuple(vec[n00 + i * q:n00 + (i + 1) * q] for i in range(qq)),
        )
        for vec in kernel
    )
