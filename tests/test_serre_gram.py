"""The Serre Gram matrix by column selection, against the entry-by-entry oracle."""

import itertools
import random

import pytest

from zdinfty import homext, linalg
from zdinfty.fields import GF, QQ
from zdinfty.homext import serre_check, serre_gram
from zdinfty.objects import direct_sum_many, rank_one, rank_two, serre_twist, torsion_cyclic

from oracle_serre import gram_by_composition

FIELDS = [QQ, GF(2), GF(3)]


def _torsion_free_catalog(F):
    """The torsion-free indecomposables with m <= 4 and |a| <= 3."""
    objs = []
    for a in range(-3, 4):
        objs += [rank_one(F, 0, a), rank_one(F, 1, a)]
        objs += [rank_two(F, m, a) for m in range(1, 5)]
    return objs


def _lattice_sum(F, rng):
    """A direct sum of 2-4 summands rank_two(m, a) or rank_one(i, a), |a| <= 2."""
    parts = []
    for _ in range(rng.randint(2, 4)):
        a = rng.randint(-2, 2)
        if rng.random() < 0.7:
            parts.append(rank_two(F, rng.randint(1, 3), a))
        else:
            parts.append(rank_one(F, rng.randint(0, 1), a))
    return direct_sum_many(parts)[0]


def _sum_pairs(F, seed=7, count=20):
    rng = random.Random(seed)
    return [(_lattice_sum(F, rng), _lattice_sum(F, rng)) for _ in range(count)]


def _assert_matches_oracle(X, Y):
    ref = gram_by_composition(X, Y)
    assert serre_gram(X, Y) == ref, (X, Y)
    assert serre_check(X, Y).gram_rank == (linalg.rank(X.field, ref) if ref else 0), (X, Y)
    assert serre_gram(X, Y, flipped=True) == gram_by_composition(X, Y, flipped=True), (X, Y)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_gram_matches_oracle_on_catalog(F):
    objs = _torsion_free_catalog(F)
    assert len(objs) == 42
    for X, Y in itertools.product(objs, repeat=2):
        _assert_matches_oracle(X, Y)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_gram_matches_oracle_on_lattice_sums(F):
    # the catalog has rank <= 2 and 1x1 blocks, where a transposition slip
    # goes unseen; sums have wider blocks
    pairs = _sum_pairs(F)
    assert max(X.p for X, _ in pairs) >= 3
    for X, Y in pairs:
        _assert_matches_oracle(X, Y)


def _lattice_chain(F, k):
    """L_k: the sum of rank_two(1 + i % 3, i % 3) for i < k."""
    return direct_sum_many([rank_two(F, 1 + i % 3, i % 3) for i in range(k)])[0]


def test_serre_check_composes_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("the Gram matrix formed a composite")

    monkeypatch.setattr(homext, "yoneda_compose", refuse)
    monkeypatch.setattr(homext, "eta", refuse)
    # the Gram matrix selects entries of the Hom basis at the free positions,
    # and an Ext space builds its unit classes only when its basis is read
    built = []

    def build(*args, _real=homext.ExtClass):
        built.append(args)
        return _real(*args)

    monkeypatch.setattr(homext, "ExtClass", build)
    calls = {"_hom_count": 0, "_ext_count": 0}
    for name in calls:
        def counted(X, Y, _name=name, _real=getattr(homext, name)):
            calls[_name] += 1
            return _real(X, Y)

        monkeypatch.setattr(homext, name, counted)
    X, Y = _lattice_chain(QQ, 3), rank_two(QQ, 2, 1)
    report = serre_check(X, Y)
    assert calls == {"_hom_count": 1, "_ext_count": 1}
    assert report.gram_nondegenerate
    L8 = _lattice_chain(QQ, 8)
    report = serre_check(L8, L8)
    assert report.gram_rank == report.dim_hom == report.dim_ext_twisted == 43
    assert report.passed
    grams = [serre_gram(X, Y), serre_gram(X, serre_twist(X), flipped=True)]
    assert all(map(any, grams)) and built == []
    mixed = direct_sum_many([rank_two(QQ, 1, 0), torsion_cyclic(QQ, 3, 0)])[0]
    space = homext.ext_space(mixed, serre_twist(mixed))
    assert space.dim == 4 and built == []
    assert len(space.basis) == 4 and len(built) == 4
    assert space.basis is space.basis and len(built) == 4
