"""``decomp.identify`` as it named a rank-two lattice with p = q = 1 before
it read the label off the canonical steps: the degrees of the two pure
coordinate vectors by ``lattice.degree_of``, which must agree, and the jump
list checked against F[m, a].  Labels and error messages must match the
closed form on every input."""

from zdinfty import linalg
from zdinfty.decomp import rank_one_label, rank_two_label, wing
from zdinfty.errors import UnrecognizedShape
from zdinfty.lattice import degree_of


def identify(X):
    if X.rank == 0 and len(X.torsion.summands) == 1:
        n, a = X.torsion.summands[0]
        return wing(n, a)
    if not X.torsion.is_zero() or X.is_zero():
        raise UnrecognizedShape("not a single indecomposable shape")
    L = X.lattice
    if X.rank == 1:
        return rank_one_label(0 if X.p == 1 else 1, -L.jump_list[0])
    if X.rank == 2 and X.p == 1 and X.q == 1:
        a = -L.jump_list[0]
        c0, c1 = (degree_of(L, e) for e in linalg.identity(X.field, 2))
        if c0 != c1:
            raise UnrecognizedShape("pure-coordinate degrees disagree")
        m = c0 + a
        if m >= 1 and sorted(L.jump_list) == [-a, m - a]:
            return rank_two_label(m, a)
    raise UnrecognizedShape(f"no classified label matches rank {X.rank}")
