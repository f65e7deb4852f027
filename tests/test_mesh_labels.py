"""The mesh rule against computed middles.

``almost_split`` and ``quiver_window`` take their middle factors from the
classification (``decomp.mesh_middle_labels``), and ``almost_split`` still
builds the middle and checks it against them in K0.  The differential test
decomposes every built middle and compares it with the rule, tuple for
tuple; the count test shows that CLI ``ars`` builds one middle and
decomposes nothing, and that ``quiver`` builds no sequence; the last test
shows that the check rejects a middle that is not the mesh's.
"""

import sys
from collections import Counter

import pytest

from zdinfty import ar
from zdinfty.ar import almost_split, extension_middle
from zdinfty.cli import run_command
from zdinfty.decomp import (
    decompose,
    identify,
    label_to_object,
    mesh_middle_labels,
    rank_one_label,
    rank_two_label,
    wing,
)
from zdinfty.errors import ZdinftyError
from zdinfty.fields import GF, QQ
from zdinfty.objects import shift

from oracle_ses import zero_class
from test_lazy_ars import _cli_field, _indecomposables

FIELDS = [QQ, GF(2), GF(3)]


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_rule_is_the_decomposed_middle(F):
    for X, label in _indecomposables(F):
        mesh = almost_split(X)
        assert mesh.middle == extension_middle(mesh.cls)[0], label
        assert decompose(mesh.middle).factors == mesh.middle_factors, label
        assert mesh.middle_factors == mesh_middle_labels(identify(X)), label


def test_rule_by_hand():
    assert mesh_middle_labels(rank_one_label(0, 2)) == (rank_two_label(1, 2),)
    assert mesh_middle_labels(rank_one_label(1, -1)) == (rank_two_label(1, -1),)
    assert mesh_middle_labels(rank_two_label(1, 0)) == (
        rank_one_label(0, -1),
        rank_one_label(1, -1),
        rank_two_label(2, 0),
    )
    assert mesh_middle_labels(rank_two_label(3, 1)) == (rank_two_label(2, 0), rank_two_label(4, 1))
    assert mesh_middle_labels(wing(1, 0)) == (wing(2, 0),)
    assert mesh_middle_labels(wing(4, 2)) == (wing(3, 1), wing(5, 2))


def _count_everywhere(monkeypatch, counts, fn):
    """Count calls of fn through every module of the package that binds it."""

    def counted(*args):
        counts[fn.__name__] += 1
        return fn(*args)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.split(".")[0] == "zdinfty" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)


ARS_LABELS = [
    rank_one_label(0, 0),
    rank_one_label(1, 2),
    rank_two_label(1, -1),
    rank_two_label(4, 0),
    wing(1, 0),
    wing(4, 2),
    wing(32, -3),
]


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_cli_builds_one_middle_per_ars_and_decomposes_nothing(F, monkeypatch):
    counts = Counter()
    for fn in (extension_middle, decompose, almost_split):
        _count_everywhere(monkeypatch, counts, fn)
    field = _cli_field(F)
    for label in ARS_LABELS:
        for fmt in ("text", "json"):
            before = Counter(counts)
            assert run_command(["--field", field, "--format", fmt, "ars", str(label)])[0] == 0
            assert counts - before == Counter(extension_middle=1, almost_split=1), label
    for fmt in ("text", "json"):
        before = Counter(counts)
        argv = ["--field", field, "--format", fmt, "quiver",
                "--m-max", "6", "--a-min", "-3", "--a-max", "3", "--n-max", "4"]
        assert run_command(argv)[0] == 0
        assert counts == before


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_check_rejects_a_middle_off_the_mesh(F, monkeypatch):
    real = ar.extension_middle
    built = []

    def split_middle(c):
        """The middle of the split class between c's ends."""
        E, maps = real(zero_class(c.src, c.dst))
        built.append(E)
        return E, maps

    monkeypatch.setattr(ar, "extension_middle", split_middle)
    with pytest.raises(ZdinftyError, match="mesh rule"):
        almost_split(label_to_object(F, wing(3, 1)))
    assert decompose(built[-1]).factors == (wing(3, 0), wing(3, 1))
    code, out = run_command(["--field", _cli_field(F), "ars", "T[3,1]"])
    assert (code, out) == (2, "error: the built middle does not match the mesh rule")

    # A lattice middle is checked in K0 only, where the split middle equals
    # the mesh's; a middle with the wrong dimensions is caught.
    def shifted_middle(c):
        E, maps = real(c)
        return shift(E, 1), maps

    monkeypatch.setattr(ar, "extension_middle", shifted_middle)
    for label in (rank_two_label(2, 0), rank_two_label(1, 0), rank_one_label(0, 1)):
        with pytest.raises(ZdinftyError, match="mesh rule"):
            almost_split(label_to_object(F, label))
