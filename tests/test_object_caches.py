"""Per-object caches: the twist, adapted generators and the inverse
generator matrix, whose trailing rows, each up to a nonzero factor, are the
step annihilators.

Each is checked against the value built afresh, over Q, F_2 and F_3, on the
acceptance catalog and on seeded direct sums.  A warm cache must not change
what an object is: equality, hashing, pickling and copying see only its
fields.
"""

import copy
import pickle
import random

import pytest

from zdinfty import lattice, linalg, objects
from zdinfty.errors import ShapeMismatch
from zdinfty.fields import GF, QQ
from zdinfty.homext import eta, serre_check
from zdinfty.objects import direct_sum_many, rank_two, serre_twist, shift, sigma

from oracle_generators import generators_uncached
from oracle_ses import zero_class
from oracle_slots import max_jump
from test_acceptance import catalog

FIELDS = [QQ, GF(2), GF(3)]


def _sums(F, seed=11, count=20):
    """Direct sums of 2-4 catalog objects with m, n <= 3 and |a| <= 2."""
    rng = random.Random(seed)
    pool = catalog(F, m_max=3, n_max=3, a_bound=2)
    return [direct_sum_many(rng.sample(pool, rng.randint(2, 4)))[0] for _ in range(count)]


def _objects(F):
    return catalog(F) + _sums(F)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_cached_twist_equals_fresh_twist(F):
    for X in _objects(F):
        VX = serre_twist(X)
        assert VX == shift(sigma(X), -1), X
        assert serre_twist(X) is VX


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_cached_generators_equal_uncached_loop(F):
    for X in _objects(F):
        for L in (X.lattice, serre_twist(X).lattice):
            assert L.generators() == generators_uncached(L), L
            assert L.generators() is L.generators()


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_annihilator_at_every_degree(F):
    for X in _objects(F):
        L = X.lattice
        if L.rank == 0:
            assert L.annihilator_at(0) == ()
            continue
        for d in range(L.jump_list[0] - 1, max_jump(L) + 2):
            basis, ann = L.subspace_at(d), L.annihilator_at(d)
            inv = L.generator_inverse[L.dim_at(d):]  # over Q, ann[k] is a multiple of inv[k]
            assert len(ann) == len(inv) and (ann == inv if F.p else all(
                any(a) and linalg.rank(F, (a, g)) == 1 for a, g in zip(ann, inv)
            )), (L, d)
            assert all(not any(linalg.mat_vec(F, ann, v)) for v in basis), (L, d)
            assert linalg.rank(F, ann) == L.rank - len(basis), (L, d)
            assert linalg.rref(F, ann)[0] == linalg.rref(F, linalg.nullspace(F, basis, L.rank))[0]


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_step_pivots_at_every_degree(F, monkeypatch):
    objs = [_warm(X) for X in _objects(F) if X.rank]
    # a warm lattice answers membership without rescanning its steps
    calls = []
    monkeypatch.setattr(lattice, "_pivots", lambda *args: calls.append(args))
    for X in objs:
        L = X.lattice
        for e, dir in L.generators():
            for d in range(L.jump_list[0] - 1, max_jump(L) + 2):
                assert lattice.membership(L, lattice.GradedVector(d, dir)) == (d >= e)
    assert calls == []


def test_one_sigma_per_object_over_a_serre_sweep(monkeypatch):
    calls = []
    original = lattice.sigma_lattice

    def counting(L):
        calls.append(L)
        return original(L)

    for module in (lattice, objects):
        monkeypatch.setattr(module, "sigma_lattice", counting)
    objs = catalog(QQ)
    for X in objs:
        for Y in objs:
            assert serre_check(X, Y).passed
    assert len(calls) == len(objs)


def _warm(X):
    """Fill every cache of X and return it."""
    serre_twist(X)
    X.lattice.generators()
    X.torsion.slots_at(0)
    X.lattice.generator_inverse
    if X.rank:
        X.lattice.annihilator_at(max_jump(X.lattice))
    return X


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_warm_caches_keep_identity(F):
    for warm, cold in zip(_objects(F), _objects(F)):
        _warm(warm)
        for other in (cold, pickle.loads(pickle.dumps(warm)), copy.deepcopy(warm)):
            assert other == warm and warm == other
            assert hash(other) == hash(warm)
            assert other.lattice == warm.lattice
            assert hash(other.lattice) == hash(warm.lattice)
            assert serre_twist(other) == serre_twist(warm)
            assert other.lattice.generators() == warm.lattice.generators()


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_eta_rejects_a_class_into_the_wrong_object(F):
    X = _warm(rank_two(F, 2, 0))
    fresh_twist = shift(sigma(rank_two(F, 2, 0)), -1)
    assert eta(X, zero_class(X, fresh_twist)) == F.zero
    for wrong in (X, shift(serre_twist(X), -1), rank_two(F, 3, 1)):
        with pytest.raises(ShapeMismatch):
            eta(X, zero_class(X, wrong))
