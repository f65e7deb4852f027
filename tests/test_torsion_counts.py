"""Hom and Ext count their torsion parts on bars: each ``dim`` is fixed when
the space is built, and the torsion pairs, per-generator widths and hit slots
are listed only when first read.

The differential tests hold every counted ``dim`` to the length of the lists
built on read, the Ext bar count to the slots ``CObject.xpower_slots`` misses,
and ``serre_check``'s and ``euler_form``'s counts, which build no space, to
the spaces' ``dim``; the count tests show that a caller of ``dim`` alone lists
nothing, that reading ``basis`` lists each once, and that ``serre_check``
builds no space.
"""

import itertools
import random
from functools import cached_property

import pytest

from zdinfty import homext, linalg
from zdinfty.cli import run_command
from zdinfty.fields import GF, QQ
from zdinfty.homext import euler_form, ext_space, hom_space, serre_check
from zdinfty.objects import (
    CObject,
    TorsionPart,
    direct_sum_many,
    rank_two,
    serre_twist,
    torsion_cyclic,
)

from test_acceptance import catalog
from test_ext_closed_form import _sums
from test_lazy_hom import _cli_field
from test_serre_bookkeeping import _mixed_sums

FIELDS = [QQ, GF(2), GF(3)]


def _torsion_sums(F):
    """The seeded sums: lattice-heavy, torsion-heavy and mixed ones,
    then conjugated ones, five or more of them with >= 4 torsion summands."""
    sums = _sums(F, seed=83, count=10) + _mixed_sums(F, seed=89, count=10)
    assert sum(len(X.torsion.summands) >= 4 for X in sums) >= 5
    return sums


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
    sums = _torsion_sums(F)
    rng = random.Random(97)
    for X in sums:
        for Y in (rng.choice(sums), X, serre_twist(X)):
            _assert_counts_are_lengths(X, Y)
            _assert_counts_are_lengths(Y, X)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_ext_bar_count_is_the_slots_the_xpower_misses(F):
    rng = random.Random(101)
    objs = _sums(F, seed=103, count=10) + catalog(F, m_max=2, n_max=4, a_bound=2)
    interlaced = 0
    for _ in range(1500):
        X, Y = rng.choice(objs), rng.choice(objs)
        bars = [(-a, n - a) for n, a in X.torsion.summands]
        missed = sum(Y.module_dim_at(d) - len(Y.xpower_slots(b, d)) for b, d in bars)
        assert homext._ext_torsion(X, Y) == missed, (X, Y)
        # the bars of Y born inside a bar of X and outliving it
        interlaced += missed > sum(Y.lattice.dim_at(d) - Y.lattice.dim_at(b) for b, d in bars)
    assert interlaced >= 100


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_serre_check_and_euler_form_count_the_spaces_dims(F):
    objs, sums = catalog(F), _torsion_sums(F)
    rng = random.Random(107)
    pairs = list(itertools.product(objs, repeat=2))
    assert len(pairs) == 4900
    pairs += [(X, Y) for X in sums for Y in (rng.choice(sums), X, serre_twist(X))]
    pairs += [(Y, X) for X, Y in pairs[4900:]]
    for X, Y in pairs:
        report = serre_check(X, Y)
        hom, ext = hom_space(X, Y), ext_space(Y, serre_twist(X))
        assert (report.dim_hom, report.dim_ext_twisted) == (hom.dim, ext.dim), (X, Y)
        assert euler_form(X, Y) == hom.dim - ext_space(X, Y).dim, (X, Y)


def test_serre_check_builds_and_freezes_no_space(monkeypatch):
    built = []

    def counting(name, real):
        def counted(*args):
            built.append(name)
            return real(*args)
        return counted

    for cls, name in ((homext.HomSpace, "__init__"), (homext.ExtSpace, "__init__"),
                      (TorsionPart, "slots_at"), (CObject, "module_dim_at")):
        monkeypatch.setattr(cls, name, counting(f"{cls.__name__}.{name}", getattr(cls, name)))
    monkeypatch.setattr(linalg, "_echelon", counting("_echelon", linalg._echelon))
    for F in FIELDS:
        T = direct_sum_many([torsion_cyclic(F, 3, 1), torsion_cyclic(F, 2, 0), rank_two(F, 1, 0)])[0]
        U = direct_sum_many([torsion_cyclic(F, 4, 0), torsion_cyclic(F, 1, -1)])[0]
        L = rank_two(F, 2, 1)
        for X, Y in itertools.product((T, U, L, torsion_cyclic(F, 2, 1)), repeat=2):
            assert serre_check(X, Y).passed, (X, Y)
            euler_form(X, Y)
    assert set(built) <= {"_echelon"} and "_echelon" in built
    # euler_form eliminates nothing, and the counters count: the two
    # eliminations are the spaces'
    del built[:]
    assert euler_form(T, T) == hom_space(T, T).dim - ext_space(T, T).dim
    assert built.count("_echelon") == 2 and "ExtSpace.__init__" in built
    assert {"TorsionPart.slots_at", "CObject.module_dim_at"} <= set(built)


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
