"""Adapted generators by the loop over steps, rebuilt on every call.

This is how ``GradedLattice.generators`` read the generators before it kept
them on the lattice; it is kept here only to check the cached tuple.
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
