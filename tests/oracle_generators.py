"""Adapted generators and degree data by the loop over steps, rebuilt on
every call.

``generators_uncached`` is how ``GradedLattice.generators`` read the
generators before it kept them on the lattice, and it checks the cached
tuple.  ``step_jump_list`` and ``step_dim_at`` are how ``jump_list`` and
``dim_at`` read the degree data before both were derived from the
generators: the jump of each step repeated once per dimension it adds, and
the length of the echelon basis of S_d that ``subspace_at`` returns.
Neither reads ``generators``, ``jump_list`` or a bisection of the jumps.
"""

from zdinfty.lattice import _pivots


def generators_uncached(L) -> tuple:
    """(jump, direction) for each row whose pivot is new at its step."""
    out = []
    prev_pivots: set = set()
    for jump, basis in L.steps:
        pivots = _pivots(basis)
        for row, piv in zip(basis, pivots):
            if piv not in prev_pivots:
                out.append((jump, row))
        prev_pivots = set(pivots)
    return tuple(out)


def step_jump_list(L) -> tuple:
    """Jump degrees with multiplicity: step by step, the jump repeated once
    per basis row the step adds to the cumulative subspace."""
    out = []
    prev = 0
    for jump, basis in L.steps:
        out.extend([jump] * (len(basis) - prev))
        prev = len(basis)
    return tuple(out)


def step_dim_at(L, d) -> int:
    """dim S_d, the number of echelon basis rows of S_d."""
    return len(L.subspace_at(d))
