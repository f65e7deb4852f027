"""Reference lattice canonical form: one full row reduction per jump.

This is the loop that ``lattice.canonicalize`` replaced: the generators are
grouped by jump, and at every jump the reduced basis so far and the new
directions are row-reduced again from scratch, here with the field-generic
``oracle_rref.rref``.  A jump whose reduction grows the span is a step.  The
reduced echelon form is unique, so ``canonicalize``, which keeps one
``linalg.Echelon`` across the jumps, must agree with it step for step.
"""

from zdinfty.errors import DimensionMismatch, NotFullRank
from zdinfty.lattice import GradedLattice

import oracle_rref


def canonicalize(field, gens, p, q):
    r = p + q
    gens = [(int(j), tuple(d)) for j, d in gens]
    for _, d in gens:
        if len(d) != r:
            raise DimensionMismatch(f"direction of length {len(d)}, ambient rank {r}")
    if r == 0:
        return GradedLattice(field, 0, 0, ())
    if not gens:
        raise NotFullRank("no generators for a positive-rank ambient space")
    gens.sort(key=lambda g: g[0])
    steps = []
    acc = []
    i = 0
    while i < len(gens):
        jump = gens[i][0]
        while i < len(gens) and gens[i][0] == jump:
            acc.append(gens[i][1])
            i += 1
        basis, _ = oracle_rref.rref(field, acc)
        if basis and (not steps or len(basis) > len(steps[-1][1])):
            steps.append((jump, basis))
        acc = list(basis)
    if not steps or len(steps[-1][1]) != r:
        got = len(steps[-1][1]) if steps else 0
        raise NotFullRank(f"generators span a rank-{got} subspace of k^{r}")
    return GradedLattice(field, p, q, tuple(steps))
