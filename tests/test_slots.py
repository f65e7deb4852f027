"""The positional slot layout against the label-based reference.

The degree-d basis of an object is its adapted generators with jump <= d,
then its torsion summands alive at d.  ``oracle_slots`` names each slot by an
("F", j)/("T", i) label and looks its position up; the library indexes slots
by position.  Both are compared at every degree of each object's window, over
Q, F_2 and F_3, on the acceptance catalog and on seeded sums with torsion.
"""

import random

import pytest

import oracle_slots as oracle
from zdinfty.ar import morphism_from_degreewise
from zdinfty.fields import GF, QQ
from zdinfty.homext import ext_space, hom_space, morphism_degreewise, serre_twist_class
from zdinfty.objects import direct_sum_many, module_xpower

from test_acceptance import catalog

FIELDS = [QQ, GF(2), GF(3)]


def _torsion_sums(F, seed=23, count=20):
    """Sums of 1-3 catalog objects (m, n <= 3, |a| <= 2) and one torsion atom."""
    rng = random.Random(seed)
    pool = catalog(F, m_max=3, n_max=3, a_bound=2)
    atoms = [X for X in pool if X.rank == 0]
    return [
        direct_sum_many(rng.sample(pool, rng.randint(1, 3)) + [rng.choice(atoms)])[0]
        for _ in range(count)
    ]


def _pairs(F, seed=29):
    """20 pairs: a torsion sum with itself, with another, and with a catalog object."""
    rng = random.Random(seed)
    sums, objs = _torsion_sums(F), catalog(F, m_max=2, n_max=3, a_bound=2)
    pairs = [(X, X) for X in rng.sample(sums, 7)]
    pairs += [tuple(rng.sample(sums, 2)) for _ in range(7)]
    pairs += [(rng.choice(objs), rng.choice(sums))[:: rng.choice((1, -1))] for _ in range(6)]
    return pairs


def _window(*objs):
    bounds = [oracle.window_bounds(X) for X in objs]
    return min(lo for lo, _ in bounds), max(hi for _, hi in bounds)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_slot_layout_matches_labels(F):
    rng = random.Random(31)
    for X in catalog(F) + _torsion_sums(F):
        lo, hi = _window(X)
        for d in range(lo - 1, hi + 2):
            labels = oracle.module_slots_at(X, d)
            assert X.module_dim_at(d) == len(labels)
            for i in X.torsion.slots_at(d):
                assert labels[X.torsion_slot(i, d)] == ("T", i)
            vectors = [tuple(F.of_int(rng.randint(-3, 3)) for _ in labels)]
            vectors += [tuple(F.one if k == j else F.zero for k in range(len(labels)))
                        for j in range(len(labels))]
            for v in vectors:
                assert X.lattice_vector(d, v) == oracle.lattice_vector(X, d, v), (X, d, v)
            for d_to in range(d, hi + 2):
                assert module_xpower(X, d, d_to) == oracle.module_xpower(X, d, d_to), (X, d)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_morphisms_degreewise_match_labels_and_round_trip(F):
    maps = 0
    for X, Y in _pairs(F):
        lo, hi = _window(X, Y)
        for m in hom_space(X, Y).basis:
            psi = {}
            for d in range(lo - 1, hi + 2):
                psi[d] = morphism_degreewise(m, d)
                assert psi[d] == oracle.morphism_degreewise(m, d), (m, d)
                assert len(psi[d]) == Y.module_dim_at(d)
            assert morphism_from_degreewise(X, Y, psi) == m
            maps += 1
    assert maps > 50


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_twisted_classes_match_labels(F):
    classes = 0
    for X, Y in _pairs(F):
        for c in ext_space(X, Y).basis:
            assert serre_twist_class(c) == oracle.serre_twist_class(c), c
            classes += any(not F.is_zero(x) for v in c.tor for x in v)
    assert classes > 15
