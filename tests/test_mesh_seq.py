"""An almost split sequence's ``seq`` is built around the middle that
``almost_split`` built: reading it runs no second ``extension_middle``."""

import copy
import pickle

import pytest

from zdinfty import ar
from zdinfty.ar import almost_split, extension_object
from zdinfty.decomp import label_to_object, rank_one_label, rank_two_label, wing
from zdinfty.fields import GF, QQ


@pytest.mark.parametrize("F", [QQ, GF(2)], ids=str)
@pytest.mark.parametrize("label", [wing(3, 0), rank_two_label(2, 1), rank_one_label(0, 0)], ids=str)
def test_seq_reuses_the_built_middle(F, label, monkeypatch):
    calls = []
    real = ar.extension_middle

    def counted(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(ar, "extension_middle", counted)
    mesh = almost_split(label_to_object(F, label))
    assert len(calls) == 1
    seq = mesh.seq
    assert len(calls) == 1
    assert seq.middle is mesh.middle
    assert (seq.left, seq.right, seq.cls) == (mesh.cls.dst, mesh.cls.src, mesh.cls)
    assert seq == extension_object(mesh.cls)


@pytest.mark.parametrize("F", [QQ, GF(2)], ids=str)
def test_copied_mesh_builds_its_sequence_from_the_class(F):
    # the function that builds the maps is not a field: a pickled or copied
    # mesh leaves it behind and builds its sequence as extension_object does
    for label in (wing(2, 0), rank_two_label(1, 0)):
        mesh = almost_split(label_to_object(F, label))
        for other in (pickle.loads(pickle.dumps(mesh)), copy.copy(mesh)):
            assert other == mesh and hash(other) == hash(mesh) and repr(other) == repr(mesh)
            assert other.seq == extension_object(mesh.cls) == mesh.seq
