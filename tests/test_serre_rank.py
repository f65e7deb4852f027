"""``serre_check`` takes the Gram rank from the kept echelons, with no Gram.

On two torsion-free objects the rank is dim Hom - |P| + rank E[:, P'], E the
kept echelon of the Hom constraints and P' the Hom unknowns that the Ext
pivots P pair with through the transpose (``homext.serre_check``).  The
differential test holds it to the rank of ``oracle_serre.gram``, the Gram
matrix built from every lattice map and free cell, and holds the lattice maps
and the reduced Ext image, built on first read from the kept echelons, to
``oracle_membership`` and ``oracle_ext``.  It runs on the acceptance catalog
and on seeded conjugated torsion-free sums with p or q >= 2: on the catalog
every Ext pivot cell pairs with itself under the transpose, so only the sums
tell P' from P.  The count test shows that the check, and the CLI's ``hom``,
``ext`` and ``euler``, build no kernel vector and reduce nothing.
"""

import itertools
import random

import pytest

import oracle_ext
import oracle_serre
from oracle_decomp import conjugated_sum
from oracle_membership import inverse_constant_matrix_solutions
from test_acceptance import catalog
from zdinfty import cli, homext, linalg
from zdinfty.fields import GF, QQ
from zdinfty.objects import rank_one, rank_two, serre_twist

FIELDS = [QQ, GF(2), GF(3)]


def _assert_matches_oracle(X, Y):
    VX = serre_twist(X)
    report = homext.serre_check(X, Y)
    want = oracle_serre.serre_check(X, Y)
    assert report == want, (X, Y)  # every field, the verdicts included
    assert report.gram_nondegenerate == want.gram_nondegenerate, (X, Y)
    if X.is_torsion_free() and Y.is_torsion_free():
        gram = oracle_serre.gram(oracle_serre.hom_space(X, Y), oracle_serre.ext_space(Y, VX))
        assert report.gram_rank == linalg.rank(X.field, gram), (X, Y)
    hom, ext = homext.hom_space(X, Y), homext.ext_space(Y, VX)
    assert hom.lattice_maps == inverse_constant_matrix_solutions(X, Y), (X, Y)
    assert ext.ff_reduction == oracle_ext.ext_space(Y, VX).ff_reduction, (X, Y)


def _torsion_free_sums(F, seed, count):
    """``count`` conjugated sums of 1-3 rank-two and 0-2 rank-one summands,
    each with p >= 2 or q >= 2."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        X, _ = conjugated_sum(F, rng, (rng.randint(1, 3), 0, rng.randint(0, 2)))
        if max(X.p, X.q) >= 2:
            out.append(X)
    return out


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_catalog_pairs_match_the_oracle(F):
    objs = catalog(F)
    assert len(objs) ** 2 == 4900
    for X, Y in itertools.product(objs, repeat=2):
        _assert_matches_oracle(X, Y)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_conjugated_sums_match_the_oracle(F):
    sums = _torsion_free_sums(F, seed=43, count=12)
    lattices = [X for X in catalog(F) if X.is_torsion_free()]
    pairs = list(itertools.product(sums, repeat=2))
    pairs += [(X, Y) for X in sums for Y in lattices[::3]]
    pairs += [(Y, X) for X in sums for Y in lattices[::3]]
    # the rank term is read only where Hom is nonzero and Ext has pivots
    read = 0
    for X, Y in pairs:
        _assert_matches_oracle(X, Y)
        read += homext.hom_space(X, Y).dim > 0 and bool(homext.ext_space(Y, serre_twist(X)).pivots)
    assert read >= 200, read


def test_the_check_builds_no_kernel_and_reduces_nothing(monkeypatch):
    F = QQ
    pairs = [(rank_two(F, 2, 0), rank_two(F, 3, 1)), (rank_one(F, 0, 1), rank_two(F, 1, 2))]
    pairs += list(zip(_torsion_free_sums(F, 53, 3), _torsion_free_sums(F, 59, 3)))
    for X, Y in pairs:  # fill the objects' own caches: twists, annihilators
        homext.serre_check(X, Y)
    calls = {"reduced": 0, "kernel": 0, "_gram": 0}

    def counting(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(linalg.Echelon, "reduced")
    counting(linalg.Echelon, "kernel")
    counting(homext, "_gram")
    reports = [homext.serre_check(X, Y) for X, Y in pairs]
    assert all(r.gram_nondegenerate for r in reports)
    assert sum(r.gram_rank for r in reports) > 0
    assert calls == {"reduced": 0, "kernel": 0, "_gram": 0}
    # each part is built on its first read, and once
    X, Y = pairs[0]
    hom, ext = homext.hom_space(X, Y), homext.ext_space(Y, serre_twist(X))
    assert hom.lattice_maps == hom.lattice_maps
    assert calls["kernel"] == 1
    reduced = calls["reduced"]
    assert ext.ff_reduction == ext.ff_reduction
    assert calls["reduced"] == reduced + 1


def test_dim_readers_build_neither_part(monkeypatch):
    # the CLI's hom, ext and euler, and serre_check, read ``dim`` only
    def unread(self):
        raise AssertionError("a lattice map or reduced row was built")

    for cls, name in ((homext.HomSpace, "lattice_maps"), (homext.ExtSpace, "ff_reduction"),
                      (homext.HomSpace, "basis"), (homext.ExtSpace, "basis")):
        monkeypatch.setattr(cls, name, property(unread))
    for command in ("hom", "ext", "euler"):
        for args in (["F[2,0]", "F[3,1]"], ["F[1,0] + F0[2]", "F[2,-1] + F1[0]"],
                     ["T[3,0] + F[2,1]", "T[2,1] + F0[0]"]):
            code, out = cli.run_command([command, *args])
            assert code == 0, (command, args, out)
    code, out = cli.run_command(["serre", "--catalog", "m<=2,n<=2,a>=-1,a<=1"])
    assert code == 0, out
