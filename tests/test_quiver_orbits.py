"""Quiver windows by shift orbits, against the mesh-by-mesh oracle.

``quiver_window`` reads one mesh per shape off the classification
(``mesh_middle_labels``) and shifts its middle factors along the row.  The
oracle builds the almost split sequence of every node and decomposes its
middle, so the window is checked against computed middles.  The shift
orbits rest on the degree shift being an exact autoequivalence commuting
with the translate; the equivariance tests below check it on every shape
with m, n <= 5.
"""

import functools

import pytest

from zdinfty import ar
from zdinfty.ar import almost_split, dot_export, quiver_window, window_to_json
from zdinfty.decomp import (
    decompose,
    label_to_object,
    mesh_middle_labels,
    rank_one_label,
    rank_two_label,
    shift_label,
    wing,
)
from zdinfty.fields import GF, QQ
from zdinfty.objects import shift

from oracle_quiver import quiver_by_nodes

FIELDS = [QQ, GF(2), GF(3)]

# (m_max, a_min, a_max, n_max): the ar-mesh benchmark window, a minimal
# a-span, windows entirely at a > 0 and at a < 0, and m_max = 1 / n_max = 1
WINDOWS = [
    (6, -3, 3, 4),
    (2, 0, 1, 2),
    (3, 1, 4, 2),
    (2, -5, -2, 3),
    (1, -2, 2, 3),
    (4, -1, 1, 1),
    (1, 0, 1, 1),
]

SHAPES = (
    [rank_one_label(0, 0), rank_one_label(1, 0)]
    + [rank_two_label(m, 0) for m in range(1, 6)]
    + [wing(n, 0) for n in range(1, 6)]
)


@pytest.mark.parametrize("F", FIELDS, ids=str)
@pytest.mark.parametrize("window", WINDOWS, ids=lambda w: ",".join(map(str, w)))
def test_window_matches_oracle(F, window):
    got = quiver_window(*window)
    want = quiver_by_nodes(F, *window)
    assert got == want
    assert dot_export(got) == dot_export(want)
    assert window_to_json(got) == window_to_json(want)


@pytest.mark.parametrize("window", [(3, -1, 1, 2), (3, -6, 5, 2), (1, 0, 1, 1)])
def test_one_sequence_per_shape(monkeypatch, window):
    calls = []

    def counting(label):
        calls.append(label)
        return mesh_middle_labels(label)

    monkeypatch.setattr(ar, "mesh_middle_labels", counting)
    quiver_window(*window)
    m_max, _, _, n_max = window
    assert len(calls) == m_max + n_max + 4


def _sorted(labels):
    return tuple(sorted(labels, key=lambda l: l.sort_key()))


@functools.cache
def _mesh(F, label):
    """Left label, the sorted factors of the built middle and right label of
    the sequence ending in label."""
    mesh = almost_split(label_to_object(F, label))
    return mesh.left_label, _sorted(decompose(mesh.middle).factors), mesh.right_label


@pytest.mark.parametrize("s", range(-3, 4))
@pytest.mark.parametrize("B", SHAPES, ids=str)
@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_shift_is_equivariant(F, B, s):
    Bs = shift_label(B, s)
    assert label_to_object(F, Bs) == shift(label_to_object(F, B), s)
    left, middle, right = _mesh(F, B)
    assert _mesh(F, Bs) == (
        shift_label(left, s),
        _sorted(shift_label(A, s) for A in middle),
        shift_label(right, s),
    )
