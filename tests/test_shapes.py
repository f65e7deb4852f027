"""One owner of an object's shape.

``decomp.label_shape`` reads (torsion summands, jumps, (p, q)) off a list of
labels and ``decomp.object_shape`` reads them off an object;
``ar._check_mesh`` and ``decomp.pieces_certified`` compare the two.  Over Q,
GF(2) and GF(3): the labels ``decompose`` returns have the shape of the
object on seeded conjugated and torsion-heavy sums, each mesh's labels have
the shape of the middle ``almost_split`` builds on a label window, and
``almost_split`` rejects a mesh with one factor shifted by one.
"""

import random

import pytest

from zdinfty import ar
from zdinfty.ar import almost_split
from zdinfty.decomp import (
    decompose,
    label_shape,
    label_to_object,
    label_window,
    mesh_middle_labels,
    object_shape,
    rank_one_label,
    rank_two_label,
    shift_label,
    wing,
)
from zdinfty.errors import ZdinftyError
from zdinfty.fields import GF, QQ

from oracle_decomp import conjugated_sum

FIELDS = [QQ, GF(2), GF(3)]


def test_label_shape_by_hand():
    labels = [rank_two_label(2, -1), wing(2, 1), rank_one_label(0, 0), wing(1, -2)]
    assert label_shape(labels) == (((1, -2), (2, 1)), (0, 1, 3), (2, 1))
    assert label_shape(reversed(labels)) == label_shape(labels)
    assert label_shape([rank_one_label(1, 2)]) == ((), (-2,), (0, 1))
    assert label_shape([]) == ((), (), (0, 0))


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_decomposition_labels_have_the_object_shape(F):
    rng = random.Random(151)
    shapes = [(rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 3)) for _ in range(30)]
    shapes += [(rng.randint(0, 1), rng.randint(3, 6), rng.randint(0, 1)) for _ in range(15)]
    torsion = 0
    for shape in shapes:
        X, _ = conjugated_sum(F, rng, shape)
        assert label_shape(decompose(X).factors) == object_shape(X), (shape, X)
        torsion += len(X.torsion.summands) >= 3
    assert torsion >= 15


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_mesh_labels_have_the_middle_shape(F):
    for label in label_window(4, 4, -3, 3):
        middle = almost_split(label_to_object(F, label)).middle
        assert label_shape(mesh_middle_labels(label)) == object_shape(middle), label


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_almost_split_rejects_a_shifted_factor(F, monkeypatch):
    real = ar.mesh_middle_labels

    def shifted(label):
        first, *rest = real(label)
        return (shift_label(first, 1), *rest)

    monkeypatch.setattr(ar, "mesh_middle_labels", shifted)
    for label in label_window(3, 3, -1, 1):
        with pytest.raises(ZdinftyError, match="mesh rule"):
            almost_split(label_to_object(F, label))
