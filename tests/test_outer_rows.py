"""The one outer-product builder against the two row loops it replaced.

``homext._hom_count`` and ``_ext_count`` build their systems with one
builder (``homext._outer_echelon``), the Ext image from the dual rows
``_dual`` read up to scale, and ``hom_kx_space`` calls it on the lattices
as they are.  ``oracle_counts`` keeps the two loops, the Ext loop on the
exact rows of ``generator_inverse``, and the restricted Hom on retyped
copies.  The echelon rows must agree tuple for tuple, and the dimensions
and restricted bases exactly, on the pairs of a label window and on
seeded conjugated sums with torsion (and their twists), over Q, F_2 and
F_3.  Over Q the conjugated sums hold dual rows that are proper multiples
of the inverse's rows, so the scaling is exercised.
"""

import itertools
import random

import pytest

import oracle_counts
from oracle_decomp import conjugated_sum
from zdinfty.decomp import label_to_object, label_window
from zdinfty.fields import GF, QQ
from zdinfty.homext import _ext_count, _hom_count, hom_kx_space
from zdinfty.objects import CObject, TorsionPart, serre_twist

FIELDS = [QQ, GF(2), GF(3)]


def _objects(F) -> tuple:
    """The objects of ``label_window(2, 2, -1, 1)``, and 20 seeded
    conjugated sums of 1-3 rank-two, 1-2 torsion and 0-2 rank-one
    summands."""
    rng = random.Random(58)
    window = [label_to_object(F, label) for label in label_window(2, 2, -1, 1)]
    sums = [
        conjugated_sum(F, rng, (rng.randint(1, 3), rng.randint(1, 2), rng.randint(0, 2)))[0]
        for _ in range(20)
    ]
    return window, sums


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_counts_match_the_two_loops(F):
    window, sums = _objects(F)
    pairs = list(itertools.product(window, repeat=2)) + list(itertools.product(sums, repeat=2))
    pairs += [(X, serre_twist(X)) for X in sums] + [(serre_twist(X), X) for X in sums]
    for X, Y in pairs:
        for count, loop in ((_hom_count, oracle_counts.hom_count),
                            (_ext_count, oracle_counts.ext_count)):
            (got, dim), (want, want_dim) = count(X, Y), loop(X, Y)
            assert got.rows == want.rows, (count.__name__, X, Y)
            assert dim == want_dim, (count.__name__, X, Y)
    if F == QQ:
        assert any(X.lattice._dual != X.lattice.generator_inverse for X, _ in pairs)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_restricted_hom_matches_the_retyped_copies(F):
    window, sums = _objects(F)
    objs = [X for X in window if X.is_torsion_free()]
    objs += [CObject(F, TorsionPart(()), X.lattice) for X in sums]
    for X, Y in itertools.product(objs, repeat=2):
        assert hom_kx_space(X, Y) == oracle_counts.hom_kx_space(X, Y), (X, Y)
