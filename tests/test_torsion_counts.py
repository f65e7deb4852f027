"""Hom and Ext count their torsion parts: each ``dim`` is fixed when the space
is built, and the torsion pairs, per-generator widths and hit slots are
listed only when first read.

The differential tests hold every counted ``dim`` to the length of the lists
built on read, and ``CObject.xpower_rank`` to ``len(xpower_slots)``; the
count test shows that a caller of ``dim`` alone lists nothing, and that
reading ``basis`` lists each once.
"""

import itertools
import random
from functools import cached_property

import pytest

from zdinfty import homext
from zdinfty.cli import run_command
from zdinfty.fields import GF, QQ
from zdinfty.homext import ext_space, hom_space, serre_check
from zdinfty.objects import CObject, direct_sum_many, rank_two, serre_twist, torsion_cyclic

from test_acceptance import catalog
from test_ext_closed_form import _sums
from test_lazy_hom import _cli_field
from test_serre_bookkeeping import _mixed_sums

FIELDS = [QQ, GF(2), GF(3)]


def _assert_counts_are_lengths(X, Y):
    hom = hom_space(X, Y)
    assert hom.dim == len(hom.lattice_maps) + len(hom.torsion_pairs) + sum(hom.ft_widths), (X, Y)
    ext = ext_space(X, Y)
    pivots = (ext.ff_reduction[1],) + ext.tor_reduction
    assert len(pivots) == len(ext.widths), (X, Y)
    assert ext.dim == sum(w - len(hit) for w, hit in zip(ext.widths, pivots)), (X, Y)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_counted_dims_are_list_lengths_on_catalog(F):
    objs = catalog(F)
    assert len(objs) ** 2 == 4900
    for X, Y in itertools.product(objs, repeat=2):
        _assert_counts_are_lengths(X, Y)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_counted_dims_are_list_lengths_on_sums(F):
    # lattice-heavy, torsion-heavy and mixed sums, then conjugated ones
    sums = _sums(F, seed=83, count=10) + _mixed_sums(F, seed=89, count=10)
    assert sum(len(X.torsion.summands) >= 4 for X in sums) >= 5
    rng = random.Random(97)
    for X in sums:
        for Y in (rng.choice(sums), X, serre_twist(X)):
            _assert_counts_are_lengths(X, Y)
            _assert_counts_are_lengths(Y, X)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_xpower_rank_is_the_number_of_kept_slots(F):
    rng = random.Random(101)
    objs = _sums(F, seed=103, count=10) + catalog(F, m_max=2, n_max=4, a_bound=2)
    kept = 0
    for _ in range(1500):
        X = rng.choice(objs)
        d_from = rng.randint(-5, 5)
        d_to = d_from + rng.randint(0, 6)
        rank = X.xpower_rank(d_from, d_to)
        assert rank == len(X.xpower_slots(d_from, d_to)), (X, d_from, d_to)
        kept += rank > X.lattice.dim_at(d_from)
    # torsion summands alive at both degrees occur often
    assert kept >= 100


def _count_lists(monkeypatch) -> list:
    """Record each listing of a torsion pair, width or hit slot list, and
    each ``xpower_slots`` call."""
    calls = []

    def counting(name, real):
        def counted(*args):
            calls.append(name)
            return real(*args)
        return counted

    for cls, name in ((homext.HomSpace, "torsion_pairs"), (homext.HomSpace, "ft_widths"),
                      (homext.ExtSpace, "tor_reduction")):
        prop = cached_property(counting(name, getattr(cls, name).func))
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)
    monkeypatch.setattr(CObject, "xpower_slots", counting("xpower_slots", CObject.xpower_slots))
    return calls


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_dimension_callers_list_nothing(F, monkeypatch):
    calls = _count_lists(monkeypatch)
    T = direct_sum_many([torsion_cyclic(F, 3, 1), torsion_cyclic(F, 2, 0), rank_two(F, 1, 0)])[0]
    U = direct_sum_many([torsion_cyclic(F, 4, 0), torsion_cyclic(F, 1, -1)])[0]
    for X, Y in ((T, T), (T, U), (U, T), (U, U)):
        report = serre_check(X, Y)
        assert report.passed and report.dim_hom > 0, (X, Y)
    A = "F[2,0] + T[3,1] + T[2,0] + F0[1]"
    B = "T[3,0] + T[1,0] + F[1,-1] + F1[2]"
    for command in ("hom", "ext", "euler"):
        code, _ = run_command(["--field", _cli_field(F), command, A, B])
        assert code == 0
    assert calls == []
    # the counters count: reading bases and coordinates lists each list once
    hom, ext = hom_space(T, T), ext_space(T, serre_twist(T))
    for space in (hom, ext, hom, ext):
        assert len(space.basis) == space.dim > 0
        space.coordinates(space.basis[-1])
    assert sorted(calls) == sorted(
        ["torsion_pairs", "ft_widths", "tor_reduction"]
        + ["xpower_slots"] * len(T.torsion.summands)
    )
