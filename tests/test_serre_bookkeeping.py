"""A duality check pays only for the parts a pair has.

``serre_check`` on two torsion-free objects forms no torsion pair, width or
image, and reads the Gram's free cells off the stored pivots.  The
differential tests hold every ``HomSpace``, ``ExtSpace``, Gram matrix and
``SerreReport`` to ``oracle_serre``, which does all of that bookkeeping on
every pair and lists every torsion pair, width and hit slot eagerly, and
``linalg.nullspace`` to the oracle's; the count test shows that the
bookkeeping is skipped.
"""

import dataclasses
import itertools
import random

import pytest

from zdinfty import homext, linalg
from zdinfty.decomp import label_to_object, label_window
from zdinfty.fields import GF, QQ
from zdinfty.objects import TorsionPart, direct_sum_many, rank_two, serre_twist, torsion_cyclic

import oracle_serre
from oracle_decomp import conjugated_sum
from test_serre_gram import _lattice_chain, _sum_pairs

FIELDS = [QQ, GF(2), GF(3)]


def _assert_matches_oracle(X, Y):
    VX = serre_twist(X)
    hom, ext = homext.hom_space(X, Y), homext.ext_space(Y, VX)
    ref_hom, ref_ext = oracle_serre.hom_space(X, Y), oracle_serre.ext_space(Y, VX)
    # every oracle field, the lists the library builds on first read too
    for got, want in ((hom, ref_hom), (ext, ref_ext)):
        for field in dataclasses.fields(want):
            assert getattr(got, field.name) == getattr(want, field.name), (field.name, X, Y)
    assert homext._gram(hom, ext) == oracle_serre.gram(ref_hom, ref_ext), (X, Y)
    flipped = homext.hom_space(Y, VX), homext.ext_space(X, Y)
    ref_flipped = oracle_serre.hom_space(Y, VX), oracle_serre.ext_space(X, Y)
    assert homext._gram(*flipped, flipped=True) == oracle_serre.gram(*ref_flipped, flipped=True)
    assert homext.serre_check(X, Y) == oracle_serre.serre_check(X, Y), (X, Y)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_catalog_pairs_match_the_oracle(F):
    objs = [label_to_object(F, label) for label in label_window(4, 4, -3, 3)]
    assert len(objs) == 70
    for X, Y in itertools.product(objs, repeat=2):
        _assert_matches_oracle(X, Y)


def _mixed_sums(F, seed, count):
    """Conjugated sums of 0-2 rank-two, 0-3 torsion and 0-2 rank-one
    summands, most of them with torsion, and the plain sum of the same kind
    with one torsion summand more."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        shape = (rng.randint(0, 2), rng.randint(0, 3), rng.randint(0, 2))
        if sum(shape) == 0:
            shape = (1, 1, 0)
        X, _ = conjugated_sum(F, rng, shape)
        out.append(X)
        n, a = rng.randint(1, 3), rng.randint(-2, 2)
        out.append(direct_sum_many([X, torsion_cyclic(F, n, a)])[0])
    return out


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_sums_match_the_oracle(F):
    pairs = _sum_pairs(F)
    sums = _mixed_sums(F, seed=31, count=8)
    assert sum(not X.is_torsion_free() for X in sums) >= 8
    pairs += list(zip(sums, sums[1:] + sums[:1]))
    pairs += [(X, Y) for X, _ in pairs[:6] for Y in sums[:4]]
    pairs += [(Y, X) for X, _ in pairs[:6] for Y in sums[:4]]
    for X, Y in pairs:
        _assert_matches_oracle(X, Y)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_nullspace_matches_the_oracle(F):
    rng = random.Random(5)
    for _ in range(300):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        # small entries, so zero rows, repeated rows and full rank all occur
        A = tuple(tuple(F.of_int(rng.randint(-1, 1)) for _ in range(n)) for _ in range(m))
        ncols = n if m == 0 else None
        assert linalg.nullspace(F, A, ncols) == oracle_serre.nullspace(F, A, ncols), A
    assert linalg.nullspace(F, linalg.identity(F, 3)) == ()


def test_torsion_free_check_does_no_torsion_bookkeeping(monkeypatch):
    calls = []

    def counting(name, real):
        def counted(*args):
            calls.append(name)
            return real(*args)
        return counted

    for cls, name in ((TorsionPart, "dim_at"), (TorsionPart, "slots_at"),
                      (homext.ExtSpace, "_free")):
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    for X, Y in [(_lattice_chain(QQ, 3), rank_two(QQ, 2, 1)), (_lattice_chain(GF(3), 4),) * 2]:
        report = homext.serre_check(X, Y)
        assert report.gram_nondegenerate and report.gram_rank > 0
    assert calls == []
    # the counters count: an Ext space out of torsion reads both for its
    # widths (the duality check counts bars and reads neither)
    T = direct_sum_many([rank_two(QQ, 1, 0), torsion_cyclic(QQ, 2, 0)])[0]
    homext.ext_space(T, T)
    assert {"dim_at", "slots_at"} <= set(calls)
