"""``GradedLattice.jump_list`` and ``dim_at`` against the steps oracle.

The lattice derives its degree data once, from its adapted generators:
``jump_list`` is their jumps and ``dim_at(d)`` one bisection into it.  The
oracle (``oracle_generators``) reads the same data off the steps.  Both must
agree on every lattice of the label window m, n <= 4, |a| <= 3, on seeded
split sums and on conjugated sums, over Q, GF(2) and GF(3), at every jump,
between and beside the jumps, below the first jump and above the top one.
"""

import random

import pytest

from zdinfty.decomp import label_to_object, label_window
from zdinfty.fields import GF, QQ
from zdinfty.objects import direct_sum_many

from oracle_decomp import conjugated_sum
from oracle_generators import step_dim_at, step_jump_list

FIELDS = [QQ, GF(2), GF(3)]
WINDOW = label_window(4, 4, -3, 3)


def _degrees(L) -> list:
    """Each jump and its neighbours, a degree between the extreme jumps,
    degrees well below the first jump and above the top one, and 0 for a
    lattice of rank 0."""
    jumps = sorted({j for j, _ in L.steps})
    if not jumps:
        return [-1, 0, 1]
    lo, hi = jumps[0], jumps[-1]
    near = {d for j in jumps for d in (j - 1, j, j + 1)}
    return sorted(near | {lo - 7, (lo + hi) // 2, hi + 7})


def _lattices(F) -> list:
    """The window's lattices, 20 seeded split sums of window atoms, and 20
    seeded conjugated sums."""
    atoms = [label_to_object(F, label) for label in WINDOW]
    rng = random.Random(F.p or 0)
    out = [Z.lattice for Z in atoms]
    for _ in range(20):
        out.append(direct_sum_many(rng.sample(atoms, rng.randint(2, 5)))[0].lattice)
    for _ in range(20):
        shape = (rng.randint(0, 3), rng.randint(0, 1), rng.randint(0, 2))
        if sum(shape):
            out.append(conjugated_sum(F, rng, shape)[0].lattice)
    return out


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_jump_list_and_dim_at_match_the_steps(F):
    lattices = _lattices(F)
    assert len(lattices) >= len(WINDOW) + 30
    for L in lattices:
        assert L.jump_list == step_jump_list(L), L
        for d in _degrees(L):
            assert L.dim_at(d) == step_dim_at(L, d), (L, d)
