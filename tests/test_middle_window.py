"""Differential tests of the middle of a class that glues torsion.

``ar._general_extension`` reads each end's slots once per listed degree
and writes each x-map from them and the class twist; ``window.
reconstruct_parts`` builds charts and their kernels only when the window
has a lattice and runs the kill step only when a live bar dies, and
``linalg.elder_kills`` finds the kill rows in one elimination.
``oracle_middle`` builds the same middle from two ``module_xpower``
matrices per step and the sweep that does every piece at every listed
degree, with the kill step as the rref of a kernel (``oracle_bars``).
Tuple for tuple they must give the same window (degrees, dims, x-maps),
the same summands, lattice and basis, the same middle and the same two
maps.  The builder runs on every class it is handed, so the classes here
include the lattice classes of the quiver nodes, which the library sends
to the frame builder.
"""

import random

import pytest

from zdinfty import ar, linalg, window
from zdinfty.fields import GF, QQ
from zdinfty.decomp import label_to_object
from zdinfty.homext import ext_space
from zdinfty.objects import serre_twist

import oracle_decomp
import oracle_middle
from oracle_bars import contiguous, rref_of_kernel_kills
from test_bars import planted_columns, random_class
from test_lazy_ars import _nodes

FIELDS = [QQ, GF(2), GF(3)]


def _node_classes(F) -> list:
    """The class of the almost split sequence of each quiver node and of the
    T/F ladder: a gluing class for each wing, a lattice class otherwise."""
    out = []
    for label in _nodes():
        X = label_to_object(F, label)
        out.append(ext_space(X, serre_twist(X)).basis[0])
    return out


def _glued_sum_classes(F, seed, count) -> list:
    """Seeded classes with a nonzero torsion part between conjugated sums
    with two or three torsion summands and lattice parts."""
    rng = random.Random(seed)
    shapes = [(1, 2, 0), (0, 2, 1), (1, 2, 1), (0, 3, 1), (1, 3, 0), (0, 2, 2)]
    out = []
    while len(out) < count:
        X, _ = oracle_decomp.conjugated_sum(F, rng, rng.choice(shapes))
        Y, _ = oracle_decomp.conjugated_sum(F, rng, rng.choice(shapes))
        space = ext_space(X, Y)
        if space.dim == 0:
            continue
        cls = random_class(space, rng)
        if any(map(any, cls.tor)):
            out.append(cls)
    return out


def _assert_same_middle(cls, monkeypatch):
    real = window.reconstruct_parts
    calls = []

    def recorded(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(window, "reconstruct_parts", recorded)
    E, maps = ar._general_extension(cls)
    monkeypatch.setattr(window, "reconstruct_parts", real)
    ((wm, chart, p, q), parts), = calls
    assert (wm, chart, p, q) == oracle_middle.class_window(cls)
    assert parts == oracle_middle.reconstruct_parts(wm, chart, p, q)
    # the sweep on every degree of the window gives what the old sweep gives
    full = contiguous(wm)
    assert real(full, chart, p, q) == oracle_middle.reconstruct_parts(full, chart, p, q)
    old_E, old_maps = oracle_middle.general_extension(cls)
    assert E == old_E
    assert maps() == old_maps()
    return p + q


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_node_middles_match_the_step_by_step_build(F, monkeypatch):
    ranks = [_assert_same_middle(cls, monkeypatch) for cls in _node_classes(F)]
    assert len(ranks) == 134
    # the wings' windows have no lattice, the other nodes' windows have one
    assert ranks.count(0) == sum(label.kind == "wing" for label in _nodes())


@pytest.mark.parametrize("F,seed", [(QQ, 81), (GF(2), 82), (GF(3), 83)], ids=str)
def test_glued_sum_middles_match_the_step_by_step_build(F, seed, monkeypatch):
    classes = _glued_sum_classes(F, seed, 30)
    ranks = [_assert_same_middle(cls, monkeypatch) for cls in classes]
    assert min(ranks) > 0
    several = sum(len(c.src.torsion.summands) + len(c.dst.torsion.summands) >= 5 for c in classes)
    assert several >= 10, several


def _edge_columns(F) -> list:
    """Column sets the planted draws rarely reach: none, empty columns, zero
    columns and columns that all depend on the first."""
    z, one, two = F.zero, F.one, F.of_int(2)
    return [
        [],
        [()],
        [(), (), ()],
        [(z,)],
        [(z, z), (z, z)],
        [(one, two), (z, z), (one, two)],
        [(one, two, z), (two, F.of_int(4), z), (F.neg(one), F.neg(two), z)],
        [(z, one), (one, z), (one, one), (two, one)],
    ]


@pytest.mark.parametrize("F,seed", [(QQ, 84), (GF(2), 85), (GF(3), 86), (GF(10007), 87)], ids=str)
def test_one_elimination_kills_match_the_rref_of_the_kernel(F, seed):
    # repr compares the scalars' types too: int and Fraction stay apart
    rng = random.Random(seed)
    cases = _edge_columns(F) + [planted_columns(F, rng) for _ in range(600)]
    killed = 0
    for columns in cases:
        kills, dying = linalg.elder_kills(F, columns)
        # the rref lists the bars youngest first: read it elder first
        rows, pivots = rref_of_kernel_kills(F, columns)
        last = len(columns) - 1
        rows, pivots = tuple(v[::-1] for v in rows[::-1]), tuple(last - j for j in pivots[::-1])
        assert repr((kills, dying)) == repr((rows, pivots)), columns
        killed += len(dying)
    assert killed >= 600, killed
