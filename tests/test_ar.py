"""Extension middles, almost split sequences, quiver windows, witnesses."""

import dataclasses
import random

import pytest

from zdinfty import ar, linalg
from zdinfty.ar import (
    AlmostSplitSequence,
    QuiverWindow,
    ShortExactSeq,
    almost_split,
    class_of_sequence,
    dot_export,
    extension_object,
    no_proj_no_inj_witness,
    node_id,
    quiver_window,
    verify_exact,
    window_to_json,
)
from zdinfty.decomp import (
    decompose,
    label_to_object,
    rank_one_label,
    rank_two_label,
    serre_twist_label,
    wing,
)
from zdinfty.errors import (
    NotIndecomposable,
    RangeError,
    WindowTooSmall,
    WitnessNotFound,
    ZdinftyError,
)
from zdinfty.fields import GF, QQ
from zdinfty.homext import (
    ext_space,
    hom_space,
    morphism_from_parts,
    sum_inclusion,
    yoneda_compose,
)
from zdinfty.objects import (
    direct_sum_many,
    rank_one,
    rank_two,
    serre_twist,
    shift,
    sigma,
    torsion_cyclic,
)

from oracle_ses import split_sequence, zero_class

F = QQ


def test_split_sequence():
    X, Y = rank_one(F, 0, 1), rank_two(F, 2, 0)
    seq = split_sequence(Y, X)
    assert seq.is_split()
    verify_exact(seq)
    assert sorted(str(f) for f in decompose(seq.middle).factors) == ["F0[1]", "F[2,0]"]


def test_extension_middle_rank_one_pair():
    # nonzero class between opposite-type rank-one objects glues a rank-two
    cls = ext_space(rank_one(F, 0, 2), rank_one(F, 1, 1)).basis[0]
    seq = extension_object(cls)
    verify_exact(seq)
    assert decompose(seq.middle).factors == (rank_two_label(1, 2),)
    assert class_of_sequence(seq.inject, seq.surject) == cls


def test_extension_middle_rank_two_mesh():
    X, VX = rank_two(F, 2, 1), rank_two(F, 2, 0)
    cls = ext_space(X, VX).basis[0]
    seq = extension_object(cls)
    verify_exact(seq)
    assert decompose(seq.middle).factors == (
        rank_two_label(1, 0),
        rank_two_label(3, 1),
    )
    assert class_of_sequence(seq.inject, seq.surject) == cls


def test_class_of_sequence_roundtrip_lattice():
    rng = random.Random(8)
    pairs = [
        (rank_one(F, 0, 2), rank_one(F, 1, 0)),
        (rank_two(F, 1, 1), rank_two(F, 2, 0)),
        (rank_two(F, 3, 0), rank_one(F, 0, -1)),
        (rank_one(F, 1, 1), rank_two(F, 2, -1)),
    ]
    for X, Y in pairs:
        space = ext_space(X, Y)
        for cls in space.basis:
            seq = extension_object(cls)
            verify_exact(seq)
            assert class_of_sequence(seq.inject, seq.surject) == cls
    # split sequences have zero class
    seq = split_sequence(rank_two(F, 2, 0), rank_one(F, 0, 1))
    assert class_of_sequence(seq.inject, seq.surject).is_zero()


def test_extension_torsion_by_lattice():
    T, Y = torsion_cyclic(F, 1, 0), rank_two(F, 1, -1)
    space = ext_space(T, Y)
    assert space.dim == 1
    seq = extension_object(space.basis[0])
    verify_exact(seq)
    # the middle is torsion-free of rank two
    assert seq.middle.torsion.is_zero() and seq.middle.rank == 2
    assert class_of_sequence(seq.inject, seq.surject) == space.basis[0]


def test_extension_torsion_by_torsion():
    T, VT = torsion_cyclic(F, 2, 0), torsion_cyclic(F, 2, -1)
    space = ext_space(T, VT)
    assert space.dim == 1
    seq = extension_object(space.basis[0])
    verify_exact(seq)
    assert decompose(seq.middle).factors == (wing(1, -1), wing(3, 0))
    assert class_of_sequence(seq.inject, seq.surject) == space.basis[0]


def test_extension_mixed_source():
    # X has both a torsion summand and a lattice part
    X = direct_sum_many([torsion_cyclic(F, 1, 0), rank_one(F, 0, 1)])[0]
    Y = rank_two(F, 1, -1)
    space = ext_space(X, Y)
    assert space.dim >= 2  # torsion part and lattice part both extend
    # a class with both components alive
    combo = None
    for c in space.basis:
        has_ff = any(x != F.zero for row in (c.h01 + c.h10) for x in row)
        has_tor = any(x != F.zero for v in c.tor for x in v)
        if has_ff or has_tor:
            combo = c if combo is None else space.reduce(
                tuple(tuple(F.add(a, b) for a, b in zip(r1, r2)) for r1, r2 in zip(combo.h01, c.h01)),
                tuple(tuple(F.add(a, b) for a, b in zip(r1, r2)) for r1, r2 in zip(combo.h10, c.h10)),
                tuple(tuple(F.add(a, b) for a, b in zip(v1, v2)) for v1, v2 in zip(combo.tor, c.tor)),
            )
    assert combo is not None and not combo.is_zero()
    seq = extension_object(combo)
    verify_exact(seq)
    assert class_of_sequence(seq.inject, seq.surject) == combo


def test_extension_mixed_target():
    # Y has both a torsion summand and a lattice part; X is torsion
    X = torsion_cyclic(F, 2, 0)
    Y = direct_sum_many([torsion_cyclic(F, 2, -1), rank_two(F, 1, -1)])[0]
    space = ext_space(X, Y)
    assert space.dim >= 2
    for cls in space.basis:
        seq = extension_object(cls)
        verify_exact(seq)
        assert class_of_sequence(seq.inject, seq.surject) == cls
        assert not seq.is_split()
    # a combined representative touching torsion and lattice slots at once
    tor_vec = list(space.basis[0].tor[0])
    for c2 in space.basis[1:]:
        tor_vec = [F.add(a, b) for a, b in zip(tor_vec, c2.tor[0])]
    cls = space.reduce(space.basis[0].h01, space.basis[0].h10, (tuple(tor_vec),))
    seq = extension_object(cls)
    verify_exact(seq)
    assert class_of_sequence(seq.inject, seq.surject) == cls


def test_almost_split_rank_two():
    for m in (2, 3, 4):
        for a in (-1, 0, 1):
            mesh = almost_split(rank_two(F, m, a))
            assert mesh.left_label == rank_two_label(m, a - 1)
            assert mesh.middle_factors == (
                rank_two_label(m - 1, a - 1),
                rank_two_label(m + 1, a),
            )
            assert not mesh.seq.is_split()
            verify_exact(mesh.seq)


def test_almost_split_rank_one_and_first_row():
    for i in (0, 1):
        for a in (-1, 0, 2):
            mesh = almost_split(rank_one(F, i, a))
            assert mesh.left_label == rank_one_label(1 - i, a - 1)
            assert mesh.middle_factors == (rank_two_label(1, a),)
    for a in (-1, 0, 1):
        mesh = almost_split(rank_two(F, 1, a))
        assert mesh.middle_factors == (
            rank_one_label(0, a - 1),
            rank_one_label(1, a - 1),
            rank_two_label(2, a),
        )


def test_almost_split_torsion_wing():
    for n in (2, 3):
        for a in (-1, 0, 1):
            mesh = almost_split(torsion_cyclic(F, n, a))
            assert mesh.left_label == wing(n, a - 1)
            assert mesh.middle_factors == tuple(
                sorted(
                    [wing(n - 1, a - 1), wing(n + 1, a)],
                    key=lambda l: l.sort_key(),
                )
            )
    mesh = almost_split(torsion_cyclic(F, 1, 0))
    assert mesh.middle_factors == (wing(2, 0),)
    verify_exact(mesh.seq)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_wing_middle_cost_does_not_grow_with_bar_length(field, monkeypatch):
    # the middle's window lists its event degrees only, so a wing ten
    # thousand times longer makes exactly the same eliminations
    calls = []
    real_add = linalg.Echelon.add

    def counted_add(self, v):
        calls.append(1)
        return real_add(self, v)

    monkeypatch.setattr(linalg.Echelon, "add", counted_add)
    counts = []
    for n in (10, 1000, 100000):
        calls.clear()
        mesh = almost_split(torsion_cyclic(field, n, 0))
        assert mesh.middle_factors == (wing(n - 1, -1), wing(n + 1, 0))
        counts.append(len(calls))
    assert counts[0] > 0 and counts == [counts[0]] * 3, counts


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_verify_exact_cost_does_not_grow_with_bar_length(field, monkeypatch):
    # verify_exact reads the maps at the slot events and the degree before
    # each, so a wing ten thousand times longer takes as many reads
    seqs = [almost_split(torsion_cyclic(field, n, 0)).seq for n in (10, 1000, 100000)]
    calls = []
    real = ar.morphism_degreewise

    def counted(m, d):
        calls.append(d)
        return real(m, d)

    monkeypatch.setattr(ar, "morphism_degreewise", counted)
    counts = []
    for seq in seqs:
        calls.clear()
        verify_exact(seq)
        counts.append(len(calls))
    assert counts[0] > 0 and counts == [counts[0]] * 3, counts


def _zero_map(X, Y):
    return morphism_from_parts(
        X, Y, linalg.zeros(X.field, Y.p, X.p), linalg.zeros(X.field, Y.q, X.q)
    )


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_verify_exact_rejects_each_broken_condition(field):
    # 0 -> T[50,-1] -> T[49,-1] + T[51,0] -> T[50,0] -> 0, alive on [0, 50]
    seq = almost_split(torsion_cyclic(field, 50, 0)).seq
    verify_exact(seq)
    # one more summand in the middle, alive only at degree 25, inside the bars
    bigger = direct_sum_many([seq.middle, torsion_cyclic(field, 1, -25)])[0]
    with pytest.raises(ZdinftyError, match="degree 25: dimensions are not additive"):
        verify_exact(dataclasses.replace(seq, middle=bigger))
    with pytest.raises(ZdinftyError, match="degree 1: inclusion is not injective"):
        verify_exact(dataclasses.replace(seq, inject=_zero_map(seq.left, seq.middle)))
    with pytest.raises(ZdinftyError, match="degree 0: projection is not surjective"):
        verify_exact(dataclasses.replace(seq, surject=_zero_map(seq.middle, seq.right)))
    # T -> T + T -> T, first inclusion then the sum of both projections:
    # injective and onto, but the composite is the identity
    T = torsion_cyclic(field, 50, 0)
    Z, ((place, tmap), _) = direct_sum_many([T, T])
    both = morphism_from_parts(Z, T, (), (), ((field.one, field.one),))
    broken = ShortExactSeq(T, Z, T, sum_inclusion(Z, T, place, tmap), both, zero_class(T, T))
    with pytest.raises(ZdinftyError, match="degree 0: composite is nonzero"):
        verify_exact(broken)


def test_almost_split_rejects_decomposables():
    X = direct_sum_many([rank_one(F, 0, 0), rank_one(F, 0, 1)])[0]
    with pytest.raises(NotIndecomposable):
        almost_split(X)


def test_almost_split_left_term_is_twist():
    rng = random.Random(4)
    labels = [
        rank_one_label(0, 1),
        rank_one_label(1, -1),
        rank_two_label(2, 0),
        rank_two_label(1, 2),
        wing(3, 0),
    ]
    for lbl in labels:
        X = label_to_object(F, lbl)
        mesh = almost_split(X)
        assert mesh.left_label == serre_twist_label(lbl)
        # mesh additivity of rank and type counts
        left, mid, right = mesh.seq.left, mesh.seq.middle, mesh.seq.right
        assert mid.rank == left.rank + right.rank
        assert (mid.p, mid.q) == (left.p + right.p, left.q + right.q)


def test_torsion_pullback_to_lattice_splits():
    # composing the wing class with any map from a torsion-free object
    # lands in a vanishing extension space
    T = torsion_cyclic(F, 2, 0)
    mesh = almost_split(T)
    for C in (rank_two(F, 1, 0), rank_one(F, 0, 0), rank_two(F, 3, 1)):
        maps = hom_space(C, T).basis
        for f in maps:
            pulled = yoneda_compose(mesh.seq.cls, f)
            assert pulled.is_zero()


def test_no_proj_no_inj_witnesses():
    assert no_proj_no_inj_witness(rank_one(F, 0, 0)) == (1, 1)
    assert no_proj_no_inj_witness(rank_two(F, 1, 0))[0] <= 2
    for lbl in [rank_two_label(3, -1), wing(2, 1), wing(4, -2)]:
        n_epi, n_mono = no_proj_no_inj_witness(label_to_object(F, lbl))
        assert 1 <= n_epi <= 3 and 1 <= n_mono <= 3


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_witness_is_the_first_twist_by_serre_duality(field, monkeypatch):
    # the least n is 1: shift(sigma(X), -1) is VX, shift(sigma(X), 1) is
    # V^-1 X, and Ext(X, VX) and Ext(V^-1 X, X) are both D End(X)
    for lbl in [rank_one_label(1, 2), rank_two_label(4, -1), wing(1, 0), wing(5, 3)]:
        X = label_to_object(field, lbl)
        assert ext_space(X, shift(sigma(X), -1)).dim > 0
        assert ext_space(shift(sigma(X), 1), X).dim > 0
        assert no_proj_no_inj_witness(X) == (1, 1)
    # a zero space there is a bug, and says so
    monkeypatch.setattr(ar, "ext_space", lambda X, Y: dataclasses.replace(ext_space(X, Y), dim=0))
    with pytest.raises(WitnessNotFound, match="against the twist is zero"):
        no_proj_no_inj_witness(rank_two(field, 1, 0))


def test_quiver_window_small():
    w = quiver_window(m_max=2, a_min=-1, a_max=1, n_max=2)
    # figure adjacency on the shared nodes
    arrows = {(str(a), str(b)) for a, b in w.arrows}
    assert ("F[1,0]", "F1[0]") in arrows
    assert ("F[1,0]", "F0[0]") in arrows
    assert ("F[1,0]", "F[2,1]") in arrows
    assert ("F0[-1]", "F[1,0]") in arrows
    assert ("F1[-1]", "F[1,0]") in arrows
    assert ("F[2,0]", "F[1,0]") in arrows
    # torsion wing arrows
    assert ("T[1,0]", "T[2,1]") in arrows
    assert ("T[2,1]", "T[1,1]") in arrows
    # translation pairs live inside the window
    tau = dict(w.translation)
    assert tau[rank_one_label(0, 0)] == rank_one_label(1, -1)
    assert tau[wing(2, 1)] == wing(2, 0)
    assert w.boundary_dropped > 0


def test_quiver_window_mesh_symmetry():
    w = quiver_window(m_max=3, a_min=-1, a_max=2, n_max=2)
    arrows = list(w.arrows)
    # every arrow A -> B with both tau-translates inside has a partner
    # tau(B) -> A (the mesh rule)
    nodes = set(w.nodes)
    for a, b in arrows:
        tb = serre_twist_label(b)
        if tb in nodes and a in nodes:
            assert (tb, a) in arrows, (str(a), str(b))


def test_quiver_interior_degree_balance():
    # interior nodes have equal in- and out-degree under the mesh rule
    w = quiver_window(m_max=4, a_min=-2, a_max=2, n_max=3)
    indeg = {}
    outdeg = {}
    for a, b in w.arrows:
        outdeg[a] = outdeg.get(a, 0) + 1
        indeg[b] = indeg.get(b, 0) + 1
    interior = [
        n
        for n in w.nodes
        if n.params[-1] not in (-2, 2)
        and not (n.kind == "rank_two" and n.params[0] == 4)
        and not (n.kind == "wing" and n.params[0] == 3)
    ]
    assert interior
    for n in interior:
        assert indeg.get(n, 0) == outdeg.get(n, 0), str(n)


def test_quiver_window_too_small():
    with pytest.raises(WindowTooSmall):
        quiver_window(m_max=0, a_min=0, a_max=2, n_max=1)
    with pytest.raises(WindowTooSmall):
        quiver_window(m_max=2, a_min=0, a_max=0, n_max=1)


class _Reached(Exception):
    pass


def test_quiver_size_guard(monkeypatch):
    def reached(label):
        raise _Reached

    monkeypatch.setattr(ar, "mesh_middle_labels", reached)
    span, size = ar.MAX_QUIVER_A_SPAN, ar.MAX_QUIVER_SIZE
    # at the limits the guard lets the window through to its first mesh
    with pytest.raises(_Reached):
        quiver_window(m_max=1, a_min=-span // 2, a_max=span - span // 2, n_max=1)
    with pytest.raises(_Reached):
        quiver_window(m_max=size - 1, a_min=0, a_max=1, n_max=1)
    # one past them it rejects the window before reading any mesh
    with pytest.raises(RangeError):
        quiver_window(m_max=1, a_min=0, a_max=span + 1, n_max=1)
    with pytest.raises(RangeError):
        quiver_window(m_max=1, a_min=0, a_max=1, n_max=size)
    with pytest.raises(RangeError):
        quiver_window(m_max=1, a_min=-(10 ** 9), a_max=10 ** 9, n_max=1)


def test_dot_export_one_mesh():
    # hand-built one-mesh window: 4 nodes, 3 solid arrows, 1 dashed edge
    n_a = rank_one_label(0, 0)
    n_b = rank_one_label(1, -1)
    n_c = rank_one_label(0, -1)
    n_m = rank_two_label(1, 0)
    w = QuiverWindow(
        nodes=tuple(sorted([n_a, n_b, n_c, n_m], key=lambda l: l.sort_key())),
        arrows=((n_b, n_m), (n_c, n_m), (n_m, n_a)),
        translation=((n_a, n_b),),
        boundary_dropped=0,
    )
    text = dot_export(w)
    assert text.startswith("digraph")
    assert text.count("->") == 4
    assert text.count("style=dashed") == 1
    assert '"F_1_0" -> "F0_0";' in text
    assert dot_export(w) == text  # deterministic


def test_dot_export_empty():
    w = QuiverWindow((), (), (), 0)
    text = dot_export(w)
    assert text == "digraph ar_quiver {\n}\n"


def test_window_json_schema():
    w = quiver_window(m_max=1, a_min=0, a_max=1, n_max=1)
    data = window_to_json(w)
    assert data["schema"] == "zdinfty.quiver/1"
    assert all(isinstance(n, str) for n in data["nodes"])
    assert all(len(e) == 2 for e in data["arrows"])


def test_node_ids():
    assert node_id(rank_one_label(0, -1)) == "F0_-1"
    assert node_id(rank_two_label(3, 2)) == "F_3_2"
    assert node_id(wing(2, 0)) == "T_2_0"


def test_generic_path_agrees_with_explicit_lattice_path():
    from zdinfty.ar import _general_extension

    pairs = [
        (rank_two(F, 2, 1), rank_two(F, 2, 0)),
        (rank_one(F, 0, 2), rank_one(F, 1, 0)),
        (rank_two(F, 1, 1), rank_one(F, 0, 0)),
    ]
    for X, Y in pairs:
        space = ext_space(X, Y)
        for cls in space.basis:
            explicit = extension_object(cls)
            middle, maps = _general_extension(cls)
            generic = ShortExactSeq(Y, middle, X, *maps(), cls)
            assert explicit.middle == generic.middle
            verify_exact(generic)
            assert class_of_sequence(generic.inject, generic.surject) == cls


def test_twisted_class_represents_twisted_sequence():
    from zdinfty.homext import serre_twist_class

    for X, Y in [
        (rank_two(F, 2, 1), rank_two(F, 2, 0)),
        (rank_one(F, 0, 2), rank_one(F, 1, 1)),
        (torsion_cyclic(F, 2, 0), torsion_cyclic(F, 2, -1)),
    ]:
        cls = ext_space(X, Y).basis[0]
        mid = decompose(extension_object(cls).middle).factors
        twisted_mid = decompose(extension_object(serre_twist_class(cls)).middle).factors
        assert twisted_mid == tuple(
            sorted((serre_twist_label(l) for l in mid), key=lambda l: l.sort_key())
        )


def test_les_commutes_with_duality():
    # the six-term sequence intertwines the two pairings: both squares
    # involving a horizontal Yoneda multiplication commute entrywise
    from zdinfty.homext import eta, serre_twist_class, serre_twist_morphism

    sequences = []
    for X, Y in [
        (rank_two(F, 2, 1), rank_two(F, 2, 0)),
        (rank_one(F, 0, 1), rank_one(F, 1, 0)),
        (rank_two(F, 1, 1), rank_two(F, 1, 0)),
    ]:
        sp = ext_space(X, Y)
        if sp.dim:
            sequences.append(extension_object(sp.basis[0]))
    probes = [rank_one(F, 0, 0), rank_two(F, 2, 0)]
    checked = 0
    for seq in sequences:
        F1, Fm, F2 = seq.left, seq.middle, seq.right
        zeta = seq.cls
        v_pi = serre_twist_morphism(seq.surject)
        v_zeta = serre_twist_class(zeta)
        for G in probes:
            # restriction square: Hom(F2,G) -> Hom(Fm,G) against V(pi)
            for f in hom_space(F2, G).basis:
                for h in ext_space(G, serre_twist(Fm)).basis:
                    lhs = eta(Fm, yoneda_compose(h, yoneda_compose(f, seq.surject)))
                    rhs = eta(F2, yoneda_compose(yoneda_compose(v_pi, h), f))
                    assert lhs == rhs
                    checked += 1
            # connecting square: Hom(F1,G) -> Ext(F2,G) against V(zeta)
            for f in hom_space(F1, G).basis:
                for h in hom_space(G, serre_twist(F2)).basis:
                    lhs = eta(F2, yoneda_compose(h, yoneda_compose(f, zeta)))
                    rhs = eta(F1, yoneda_compose(yoneda_compose(v_zeta, h), f))
                    assert lhs == rhs
                    checked += 1
    assert checked > 0


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5)])
def test_almost_split_prime_field(field):
    mesh = almost_split(rank_two(field, 2, 0))
    assert mesh.middle_factors == (rank_two_label(1, -1), rank_two_label(3, 0))
    mesh = almost_split(torsion_cyclic(field, 2, 0))
    assert mesh.left_label == wing(2, -1)
