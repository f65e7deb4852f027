"""Hom and Ext between rank-two objects against the closed form.

Each class of pairs (F[m, a], F[m', a']) with m, m' <= 4 and
|a' - a| <= 6, 208 of them, is checked once over Q, F_2 and F_3: the
dimensions of ``hom_space``, ``ext_space``, ``decomp.dimensions`` and
``serre_check`` against ``oracle_rank_two``, which reads no count from
``zdinfty``.  Both outer-product systems (the Hom constraints and the Ext
image) are built for every pair, so a row read at the wrong degree shows.
"""

import itertools

import pytest

from oracle_rank_two import ext_dim, hom_dim
from zdinfty.decomp import dimensions
from zdinfty.fields import GF, QQ
from zdinfty.homext import ext_space, hom_space, serre_check
from zdinfty.objects import rank_two

FIELDS = [QQ, GF(2), GF(3)]


def _classes() -> list:
    """(m, a, m', a') per class; the base degree a cycles through -1, 0, 1."""
    out = []
    for m, mp, delta in itertools.product(range(1, 5), range(1, 5), range(-6, 7)):
        a = (m + mp + delta) % 3 - 1
        out.append((m, a, mp, a + delta))
    return out


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_rank_two_dims_match_the_closed_form(F):
    classes = _classes()
    assert len(classes) == 208
    for m, a, mp, ap in classes:
        X, Y = rank_two(F, m, a), rank_two(F, mp, ap)
        hom, ext = hom_dim(m, a, mp, ap), ext_dim(m, a, mp, ap)
        assert hom_space(X, Y).dim == hom, (m, a, mp, ap)
        assert ext_space(X, Y).dim == ext, (m, a, mp, ap)
        assert dimensions(X, Y) == (hom, ext), (m, a, mp, ap)
        report = serre_check(X, Y)
        assert (report.dim_hom, report.dim_ext_twisted) == (hom, hom), (m, a, mp, ap)
