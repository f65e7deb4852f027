"""Almost split sequences compute only what their verdict reads.

``almost_split`` decides indecomposability and names both ends from the
classification (``identify`` and ``serre_twist_label``), builds the class
and the middle, and solves no Hom space; the sequence with its two maps is
built from the class on the first read of ``seq``.  The count test shows
that no map is built before that read, in the library and in CLI ``ars``
and ``quiver``, and a second one pins what a wing's middle eliminates.
The differential test checks the lazy sequence and the
labels against what they replace: ``extension_object`` of the class,
``identify`` of the twist, and the Hom-dimension test of indecomposability.
"""

import random
from collections import Counter

import pytest

from zdinfty import ar, cli, decomp, homext, linalg, objects
from zdinfty.ar import (
    almost_split,
    class_of_sequence,
    extension_object,
    no_proj_no_inj_witness,
    verify_exact,
)
from zdinfty.cli import run_command
from zdinfty.decomp import decompose, identify, label_to_object, rank_two_label, wing
from zdinfty.errors import NotIndecomposable
from zdinfty.fields import GF, QQ
from zdinfty.homext import hom_space
from zdinfty.objects import serre_twist, zero_object

import oracle_decomp
from test_bars import random_sum
from test_exact_scalars import LADDER, _ks_shapes, _window_labels

FIELDS = [QQ, GF(2), GF(3)]


def _cli_field(F) -> str:
    return "Q" if F.kind == "Q" else f"Fp:{F.p}"


def _nodes() -> list:
    """The 126 nodes the benchmark's quiver window walks, and the T/F ladder."""
    nodes = _window_labels(7, -4, 4, 5)
    assert len(nodes) == 126
    return nodes + [make(n, 0) for n in LADDER for make in (wing, rank_two_label)]


class _Builds:
    """Records every map built (with its ends) and every Hom space solved."""

    def __init__(self, monkeypatch):
        self.maps, self.counts = [], Counter()
        for name in ("morphism_from_degreewise", "sum_inclusion", "sum_projection"):
            monkeypatch.setattr(ar, name, self._map(name, getattr(ar, name)))
        real_hom = homext.hom_space

        def counted_hom(*args):
            self.counts["hom_space"] += 1
            return real_hom(*args)

        # every module of the package that binds the name
        for module in (homext, decomp, cli):
            monkeypatch.setattr(module, "hom_space", counted_hom)
        builds = self

        class Counted(homext.Morphism):
            def __init__(self, *args):
                builds.counts["Morphism"] += 1
                super().__init__(*args)

        monkeypatch.setattr(homext, "Morphism", Counted)

    def _map(self, name, fn):
        def built(*args):
            m = fn(*args)
            self.maps.append((name, m.src, m.dst))
            self.counts[name] += 1
            return m

        return built

    def snapshot(self):
        return len(self.maps), Counter(self.counts)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_almost_split_builds_no_map_until_seq_is_read(F, monkeypatch):
    objs = [label_to_object(F, label) for label in _nodes()]
    builds = _Builds(monkeypatch)
    meshes = [almost_split(X) for X in objs]
    assert builds.maps == [] and builds.counts == Counter(), builds.counts

    field = _cli_field(F)
    for label in _nodes():
        for fmt in ("text", "json"):
            assert run_command(["--field", field, "--format", fmt, "ars", str(label)])[0] == 0
    for fmt in ("text", "json"):
        argv = ["--field", field, "--format", fmt, "quiver",
                "--m-max", "6", "--a-min", "-3", "--a-max", "3", "--n-max", "4"]
        assert run_command(argv)[0] == 0
    assert builds.maps == [] and builds.counts == Counter(), builds.counts

    swept = 0
    for mesh in meshes:
        n_before, before = builds.snapshot()
        seq = mesh.seq
        built = builds.maps[n_before:]
        # one inclusion into the middle and one projection out of it
        assert [(src, dst) for _, src, dst in built] == [
            (seq.left, seq.middle), (seq.middle, seq.right)
        ]
        names = [name for name, _, _ in built]
        if any(map(any, mesh.cls.tor)):
            swept += 1
            assert names == ["morphism_from_degreewise"] * 2
        else:
            assert names == ["sum_inclusion", "sum_projection"]
        assert builds.counts["hom_space"] == before["hom_space"] == 0
        # a second read builds nothing and returns the same sequence
        n_before, before = builds.snapshot()
        assert mesh.seq is seq
        assert builds.snapshot() == (n_before, before)
    # every wing's class glues torsion; no lattice class does
    assert swept == sum(label.kind == "wing" for label in _nodes())


@pytest.mark.parametrize("F", [QQ, GF(2)], ids=str)
def test_wing_middle_writes_its_x_maps_and_eliminates_only_where_it_must(F, monkeypatch):
    # The window of T[n,0] lists four degrees for n >= 2 and three for n = 1.
    # Its x-maps are written from the slots, with no module_xpower matrix.
    # It eliminates for the rank certificate at each listed degree and for
    # one kill step, at the one listed degree where a live bar dies and
    # another survives (n >= 2 only), whatever the length n.
    counts = Counter()

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(linalg, "_echelon", counted("_echelon", linalg._echelon))
    xpower = counted("module_xpower", objects.module_xpower)
    for module in (objects, ar, homext):
        monkeypatch.setattr(module, "module_xpower", xpower)
    for n, eliminations in ((3, 5), (1, 3), (24, 5)):
        X = label_to_object(F, wing(n, 0))
        counts.clear()
        almost_split(X)
        assert counts == Counter(_echelon=eliminations), (n, counts)


def _indecomposables(F) -> list:
    """(X, label) for the nodes and for conjugated one-summand sums."""
    out = [(label_to_object(F, label), str(label)) for label in _nodes()]
    rng = random.Random(71)
    for shape in ((1, 0, 0), (0, 1, 0), (0, 0, 1)) * 10:
        X, (label,) = oracle_decomp.conjugated_sum(F, rng, shape)
        out.append((X, label))
    return out


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_lazy_sequence_and_labels_match_what_they_replace(F):
    for X, label in _indecomposables(F):
        mesh = almost_split(X)
        seq = mesh.seq
        assert seq == extension_object(mesh.cls)
        assert seq.middle == mesh.middle
        assert (seq.left, seq.right) == (serre_twist(X), X)
        verify_exact(seq)
        assert not seq.is_split()
        assert class_of_sequence(seq.inject, seq.surject) == mesh.cls
        assert mesh.middle_factors == decompose(seq.middle).factors
        assert str(mesh.right_label) == label
        assert mesh.right_label == identify(X)
        assert mesh.left_label == identify(serre_twist(X))


@pytest.mark.parametrize("F,seed", [(QQ, 72), (GF(2), 73), (GF(3), 74)], ids=str)
def test_rejects_exactly_what_hom_finds_decomposable(F, seed):
    rng = random.Random(seed)
    objs = [random_sum(F, rng) for _ in range(150)]
    objs += [oracle_decomp.conjugated_sum(F, rng, shape)[0] for shape in _ks_shapes()]
    objs.append(zero_object(F))
    verdicts = Counter()
    for X in objs:
        indecomposable = hom_space(X, X).dim == 1
        verdicts[indecomposable] += 1
        if indecomposable:
            assert almost_split(X).right_label == identify(X)
        else:
            with pytest.raises(NotIndecomposable, match="end in indecomposables"):
                almost_split(X)
            with pytest.raises(NotIndecomposable, match="expects an indecomposable"):
                no_proj_no_inj_witness(X)
    assert min(verdicts[True], verdicts[False]) >= 30, verdicts
