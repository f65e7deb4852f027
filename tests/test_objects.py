"""Structural functors, injective resolutions, and objects built from
presentations and window models by the reference constructions in
``oracle_presentation`` and ``oracle_ses``."""

import random

import pytest

from zdinfty import linalg, window
from zdinfty.errors import NotFullRank
from zdinfty.fields import GF, QQ
from zdinfty.objects import (
    CObject,
    TorsionPart,
    direct_sum_many,
    injective_resolution,
    rank_one,
    rank_two,
    serre_twist,
    serre_untwist,
    shift,
    sigma,
    torsion_cyclic,
    zero_object,
)
from zdinfty.lattice import canonicalize

from oracle_bars import checked_reconstruct
from oracle_decomp import conjugated_sum, direct_sum_many as reference_sum, lattice_direct_sum
from oracle_presentation import (
    InconsistentTypes,
    from_presentation,
    from_window,
    presentation_of_polys,
)
from oracle_ring import Poly
from oracle_ses import model_of
from oracle_slots import window_bounds
from oracle_snf import graded_smith


@pytest.fixture(autouse=True)
def reference_bars(monkeypatch):
    """Every window reconstructed here, by the oracles' from_window or
    from_presentation, is checked against the rank inclusion-exclusion
    reference."""
    monkeypatch.setattr(
        window, "reconstruct_parts", checked_reconstruct(window.reconstruct_parts, [])
    )


def test_shift_identities():
    F = QQ
    for a in (-2, 0, 3):
        assert shift(rank_one(F, 0, 0), a) == rank_one(F, 0, a)
        assert shift(rank_one(F, 1, 0), a) == rank_one(F, 1, a)
        assert shift(rank_two(F, 3, 0), a) == rank_two(F, 3, a)
        assert shift(torsion_cyclic(F, 2, 0), a) == torsion_cyclic(F, 2, a)
    X = rank_two(F, 2, 1)
    assert shift(shift(X, 5), -5) == X
    assert shift(X, 0) == X


def test_sigma_identities():
    F = QQ
    for a in (-1, 0, 2):
        assert sigma(rank_one(F, 0, a)) == rank_one(F, 1, a)
        assert sigma(rank_one(F, 1, a)) == rank_one(F, 0, a)
        assert sigma(torsion_cyclic(F, 3, a)) == torsion_cyclic(F, 3, a)
        for m in (1, 2, 4):
            assert sigma(rank_two(F, m, a)) == rank_two(F, m, a)
    X = direct_sum_many([rank_one(F, 0, 1), rank_two(F, 2, 0)])[0]
    assert sigma(sigma(X)) == X


def test_serre_twist_on_indecomposables():
    F = QQ
    assert serre_twist(rank_two(F, 2, 1)) == rank_two(F, 2, 0)
    assert serre_twist(rank_one(F, 0, 0)) == rank_one(F, 1, -1)
    assert serre_twist(rank_one(F, 1, 2)) == rank_one(F, 0, 1)
    assert serre_twist(torsion_cyclic(F, 3, 2)) == torsion_cyclic(F, 3, 1)
    for X in (rank_two(F, 3, -1), rank_one(F, 0, 2), torsion_cyclic(F, 1, 0)):
        assert serre_untwist(serre_twist(X)) == X
        assert serre_twist(serre_untwist(X)) == X


def test_injective_resolution_lattice():
    F = QQ
    desc, i0, i1 = injective_resolution(rank_two(F, 1, 0))
    assert (i0.e0_copies, i0.e1_copies, i0.divisible) == (1, 1, ())
    assert i1.divisible == (0, 1) and i1.e0_copies == 0 == i1.e1_copies
    # degreewise exactness of 0 -> F -> F_x -> F_x/F -> 0:
    # dim(F_x/F)_d = r - dim S_d equals the number of cutoffs above d
    X = rank_two(F, 3, 1)
    _, _, i1 = injective_resolution(X)
    for d in range(-5, 6):
        coker_dim = X.rank - X.lattice.dim_at(d)
        assert coker_dim == sum(1 for c in i1.divisible if d < c)


def test_injective_resolution_torsion_and_zero():
    F = QQ
    n, a = 3, 1
    desc, i0, i1 = injective_resolution(torsion_cyclic(F, n, a))
    assert i0.divisible == (n - a,)  # top degree -a+n-1 = cutoff - 1
    assert i1.divisible == (-a,)
    assert (i0.e0_copies, i0.e1_copies) == (0, 0)
    _, z0, z1 = injective_resolution(zero_object(F))
    assert z0.is_zero() and z1.is_zero()
    # mixed objects still get exactly two nonzero terms
    X = direct_sum_many([torsion_cyclic(F, 2, 0), rank_one(F, 1, 1)])[0]
    _, i0, i1 = injective_resolution(X)
    assert not i0.is_zero() and not i1.is_zero()


def test_window_model_roundtrip():
    F = QQ
    rng = random.Random(19)
    samples = [
        rank_two(F, 2, 1),
        rank_one(F, 1, -2),
        torsion_cyclic(F, 3, 0),
        direct_sum_many([rank_two(F, 1, 0), torsion_cyclic(F, 2, -1)])[0],
        direct_sum_many(
            [rank_one(F, 0, 1), rank_one(F, 0, 1), torsion_cyclic(F, 1, 2)]
        )[0],
    ]
    for X in samples:
        lo, hi = window_bounds(X)
        wm, chart = model_of(X, lo, hi)
        assert from_window(wm, chart, X.p, X.q) == X


def _pairwise_sum(X, Y):
    """Two-term direct sum from the orthogonal lattice sum and a stable merge
    of the torsion summands, with the places of both terms."""
    lat, _, _ = lattice_direct_sum(X.lattice, Y.lattice)
    p = X.p + Y.p
    place1 = tuple(range(X.p)) + tuple(range(p, p + X.q))
    place2 = tuple(range(X.p, p)) + tuple(range(p + X.q, lat.rank))
    merged = sorted(
        [(s, 0, i) for i, s in enumerate(X.torsion.summands)]
        + [(s, 1, i) for i, s in enumerate(Y.torsion.summands)],
        key=lambda m: m[0],
    )
    tmaps = ({}, {})
    for new_idx, (_, side, i) in enumerate(merged):
        tmaps[side][i] = new_idx
    Z = CObject(X.field, TorsionPart(tuple(s for s, _, _ in merged)), lat)
    return Z, place1, place2, tmaps[0], tmaps[1]


def _pairwise_fold(objs):
    """Left fold of two-term direct sums, composing the places."""
    acc = objs[0]
    layout = [(tuple(range(acc.rank)), {i: i for i in range(len(acc.torsion.summands))})]
    for Y in objs[1:]:
        acc, place1, place2, t1, t2 = _pairwise_sum(acc, Y)
        layout = [
            (tuple(place1[k] for k in place), {i: t1[j] for i, j in tmap.items()})
            for place, tmap in layout
        ]
        layout.append((place2, t2))
    return acc, layout


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_direct_sum_many_lattice_matches_canonicalized_generators(field):
    # the merged echelon rows are the canonical form of the embedded
    # generators, also when the inputs are torsion-only, conjugated or sums
    rng = random.Random(71)
    atoms = [
        lambda: rank_one(field, rng.randint(0, 1), rng.randint(-2, 2)),
        lambda: rank_two(field, rng.randint(1, 3), rng.randint(-2, 2)),
        lambda: torsion_cyclic(field, rng.randint(1, 3), rng.randint(-2, 2)),
        lambda: zero_object(field),
        lambda: conjugated_sum(
            field, rng, (rng.randint(1, 2), rng.randint(0, 1), rng.randint(1, 2))
        )[0],
    ]
    for _ in range(200):
        objs = [rng.choice(atoms)() for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.4:
            objs = [direct_sum_many(objs)[0], rng.choice(atoms)()]
        got, want = direct_sum_many(objs), reference_sum(objs)
        assert got[0].lattice.steps == want[0].lattice.steps
        assert got == want
    for m, a in [(1, 0), (3, -2), (2, 5)]:
        one, zero = field.one, field.zero
        gens = [(-a, (one, one)), (m - a, (one, zero))]
        assert rank_two(field, m, a).lattice == canonicalize(field, gens, 1, 1)
        for i, (p, q) in enumerate([(1, 0), (0, 1)]):
            assert rank_one(field, i, a).lattice == canonicalize(field, [(-a, (one,))], p, q)


@pytest.mark.parametrize("field,seed", [(QQ, 61), (GF(3), 67)])
def test_direct_sum_many_matches_pairwise_fold(field, seed):
    rng = random.Random(seed)
    atoms = [
        lambda: rank_one(field, rng.randint(0, 1), rng.randint(-2, 2)),
        lambda: rank_two(field, rng.randint(1, 3), rng.randint(-2, 2)),
        lambda: torsion_cyclic(field, rng.randint(1, 3), rng.randint(-2, 2)),
        lambda: zero_object(field),
    ]
    for _ in range(40):
        objs = [rng.choice(atoms)() for _ in range(rng.randint(1, 5))]
        # sums as inputs give non-trivial lattices and torsion to merge
        if len(objs) > 2 and rng.random() < 0.5:
            objs = [direct_sum_many(objs[:2])[0]] + objs[2:]
        assert direct_sum_many(objs) == _pairwise_fold(objs)


def test_from_presentation_pure_torsion():
    F = QQ
    P = presentation_of_polys(
        F,
        row_degrees=[0],
        col_degrees=[3],
        entry_polys=[[Poly.monomial(F, 1, 3)]],
        type_marks=[],
        loc_iso=[],
    )
    X = from_presentation(P)
    assert X.torsion.summands == ((3, 0),)
    assert X.rank == 0


def test_from_presentation_free_rank_one():
    F = QQ
    P = presentation_of_polys(
        F,
        row_degrees=[0],
        col_degrees=[],
        entry_polys=[[]],
        type_marks=[0],
        loc_iso=[[1]],
    )
    assert from_presentation(P) == rank_one(F, 0, 0)


def test_from_presentation_two_branch_ring():
    # the rank-two lattice presented by generators (1,1) and (x^2, 0)
    F = QQ
    P = presentation_of_polys(
        F,
        row_degrees=[0, 2],
        col_degrees=[],
        entry_polys=[[], []],
        type_marks=[0, 1],
        loc_iso=[[1, 1], [1, 0]],
    )
    X = from_presentation(P)
    assert X.torsion.is_zero()
    assert X == rank_two(F, 2, 0)
    # SNF oracle agrees: no torsion, free generator degrees 0 and 2
    torsion, free = graded_smith(F, [0, 2], [], [[], []])
    assert torsion == () and free == (0, 2)


def test_from_presentation_errors():
    F = QQ
    with pytest.raises(InconsistentTypes):
        from_presentation(
            presentation_of_polys(
                F,
                row_degrees=[0],
                col_degrees=[1],
                entry_polys=[[Poly.monomial(F, 1, 1)]],
                type_marks=[0],
                loc_iso=[[1]],  # does not kill the relation x*g
            )
        )
    with pytest.raises(NotFullRank):
        from_presentation(
            presentation_of_polys(
                F,
                row_degrees=[0],
                col_degrees=[],
                entry_polys=[[]],
                type_marks=[0, 1],
                loc_iso=[[1], [0]],
            )
        )


def presentation_of_object(X):
    """Free presentation of a catalog object from its canonical data."""
    F = X.field
    gens = X.lattice.generators()
    row_degrees = [j for j, _ in gens] + [-a for _, a in X.torsion.summands]
    col_degrees = [n - a for n, a in X.torsion.summands]
    nrows, ncols = len(row_degrees), len(col_degrees)
    entries = [[Poly.zero(F)] * ncols for _ in range(nrows)]
    for t, (n, a) in enumerate(X.torsion.summands):
        entries[len(gens) + t][t] = Poly.monomial(F, 1, n)
    type_marks = [0] * X.p + [1] * X.q
    loc_iso = [
        [gens[j][1][i] for j in range(len(gens))] + [F.zero] * len(X.torsion.summands)
        for i in range(X.rank)
    ]
    return presentation_of_polys(F, row_degrees, col_degrees, entries, type_marks, loc_iso)


def change_generators(P, rng):
    """The module of P presented on new generators h with g = V h, where V is
    unitriangular in the order (degree, index): V_ik = c x^(deg_i - deg_k)
    with a random nonzero constant c for (deg_k, k) < (deg_i, i).  Relation j becomes
    sum_i V_ik entry(i, j) on h_k, and the chart of h is loc_iso times the
    inverse of the constant part of V, transposed."""
    F = P.field
    rows = P.row_degrees
    n = len(rows)
    units = [c for c in map(F.of_int, (1, -1, 2)) if not F.is_zero(c)]
    V = [
        [
            F.one if i == k
            else rng.choice(units) if (rows[k], k) < (rows[i], i)
            else F.zero
            for k in range(n)
        ]
        for i in range(n)
    ]
    entries = []
    for k in range(n):
        row = []
        for j in range(len(P.col_degrees)):
            e = Poly.zero(F)
            for i in range(n):
                if not F.is_zero(V[i][k]):
                    e = e + Poly.monomial(F, V[i][k], rows[i] - rows[k]) * P.entries[i][j]
            row.append(e)
        entries.append(row)
    loc_iso = linalg.mm(F, P.loc_iso, linalg.inverse(F, linalg.transpose(V)), n, n)
    return presentation_of_polys(F, rows, P.col_degrees, entries, P.type_marks, loc_iso)


@pytest.mark.parametrize("field", [QQ, GF(5), GF(2), GF(3)])
def test_from_presentation_roundtrip_and_column_ops(field):
    rng = random.Random(23)
    row_rng = random.Random(29)
    changed = 0
    for _ in range(12):
        parts = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["r1", "r2", "t"])
            if kind == "r1":
                parts.append(rank_one(field, rng.randint(0, 1), rng.randint(-2, 2)))
            elif kind == "r2":
                parts.append(rank_two(field, rng.randint(1, 3), rng.randint(-2, 2)))
            else:
                parts.append(torsion_cyclic(field, rng.randint(1, 3), rng.randint(-2, 2)))
        X = direct_sum_many(parts)[0]
        P = presentation_of_object(X)
        assert from_presentation(P) == X
        # SNF oracle sees the same torsion and jump data; every entry is
        # homogeneous of its required degree, so its top coefficient is alpha
        alpha = [[e.coeffs[-1] if e.coeffs else field.zero for e in row] for row in P.entries]
        torsion, free = graded_smith(field, P.row_degrees, P.col_degrees, alpha)
        assert torsion == X.torsion.summands
        assert free == tuple(sorted(X.lattice.jump_list))
        # a change of generators that respects degrees does not change the object
        P3 = change_generators(P, row_rng)
        changed += P3 != P
        assert from_presentation(P3) == X
        # column operations do not change the object
        if len(P.col_degrees) >= 2:
            cols = sorted(rng.sample(range(len(P.col_degrees)), 2),
                          key=lambda j: P.col_degrees[j])
            j_small, j_big = cols
            shift_deg = P.col_degrees[j_big] - P.col_degrees[j_small]
            new_entries = [list(r) for r in P.entries]
            for i in range(len(P.row_degrees)):
                new_entries[i][j_big] = (
                    new_entries[i][j_big]
                    + new_entries[i][j_small] * Poly.monomial(field, -1, shift_deg)
                )
            P2 = presentation_of_polys(
                field, P.row_degrees, P.col_degrees, new_entries,
                [0] * X.p + [1] * X.q, P.loc_iso,
            )
            assert from_presentation(P2) == X
    assert changed > 0


def test_from_presentation_constant_on_row_ops():
    # change of generator basis g1' = g1 + 2 g0 (same degree): the relation
    # x^2 g1 = 0 becomes -2 x^2 g0' + x^2 g1' = 0 and the localization of g1'
    # picks up 2 phi(g0)
    F = QQ
    X = direct_sum_many([rank_one(F, 0, 0), torsion_cyclic(F, 2, 0)])[0]
    P = presentation_of_object(X)
    assert P.row_degrees == (0, 0) and len(P.col_degrees) == 1
    x2 = Poly.monomial(F, 1, 2)
    assert P.entries[0][0].is_zero() and P.entries[1][0] == x2
    P2 = presentation_of_polys(
        F,
        P.row_degrees,
        P.col_degrees,
        [[Poly.monomial(F, -2, 2)], [x2]],
        [0],
        [[F.one, F.of_int(2)]],
    )
    assert from_presentation(P2) == X


def test_module_dims():
    F = QQ
    X = direct_sum_many([rank_two(F, 2, 0), torsion_cyclic(F, 2, 1)])[0]
    # lattice dims: 0,0,1,1,2..., torsion alive at -1, 0
    assert X.module_dim_at(-2) == 0
    assert X.module_dim_at(-1) == 1
    assert X.module_dim_at(0) == 2
    assert X.module_dim_at(1) == 1
    assert X.module_dim_at(2) == 2


def test_constructors_take_integers_only():
    # a float length, degree or jump is refused, not truncated: int() would
    # read T[2.7, 0.2] as T[2,0] and a jump of 0.5 as 0
    with pytest.raises(TypeError):
        torsion_cyclic(QQ, 2.7, 0.2)
    with pytest.raises(TypeError):
        TorsionPart.of([(2, 0.5)])
    with pytest.raises(TypeError):
        canonicalize(QQ, [(0.5, (1,))], 1, 0)
