"""Acceptance criteria: exact desk-scale reproduction of the theory.

Each test prints one pass/fail line with its runtime.  The catalog is the
set of indecomposables with m <= 4, n <= 4, |a| <= 3 unless a criterion
states otherwise.  Each criterion runs over Q under its own name, and over
GF(2) and GF(3) in ``test_acceptance_over_prime_fields``, with the same
budget and assertions per field.
"""

import itertools
import random
import time

import pytest

from zdinfty import linalg
from zdinfty.ar import almost_split, extension_object, no_proj_no_inj_witness, quiver_window
from zdinfty.decomp import (
    decompose,
    label_to_object,
    rank_one_label,
    rank_two_label,
    serre_twist_label,
    wing,
)
from zdinfty.fields import GF, QQ
from zdinfty.homext import (
    eta,
    ext_space,
    hom_kx_space,
    hom_space,
    morphism_vector,
    serre_check,
    serre_twist_morphism,
    yoneda_compose,
)
from zdinfty.objects import (
    direct_sum_many,
    rank_one,
    rank_two,
    serre_twist,
    torsion_cyclic,
)
from zdinfty.singularity import singularity_index, y_linearity_bound

from oracle_membership import coords_in_basis, mat_scale
from oracle_ring import Poly, RmElement, ring_u, ring_v
from oracle_trunc import hom_dim_trunc


def catalog(field=QQ, m_max=4, n_max=4, a_bound=3):
    objs = []
    for a in range(-a_bound, a_bound + 1):
        objs.append(rank_one(field, 0, a))
        objs.append(rank_one(field, 1, a))
        for m in range(1, m_max + 1):
            objs.append(rank_two(field, m, a))
        for n in range(1, n_max + 1):
            objs.append(torsion_cyclic(field, n, a))
    return objs


def report(num, name, start, budget, F):
    elapsed = time.time() - start
    line = f"ACCEPTANCE {num} ({name}) over {F}: PASS in {elapsed:.2f}s (budget {budget}s)"
    print(line)
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget over {F}"


def test_acceptance_01_rank_one_tables(F=QQ):
    start = time.time()
    pairs = 0
    for i, j in itertools.product((0, 1), repeat=2):
        for a, b in itertools.product(range(-4, 5), repeat=2):
            X, Y = rank_one(F, i, a), rank_one(F, j, b)
            assert hom_space(X, Y).dim == (1 if i == j and a <= b else 0)
            assert ext_space(X, Y).dim == (1 if i == 1 - j and a > b else 0)
            pairs += 1
    assert pairs == 324
    report(1, "rank-one hom/ext tables", start, 5, F)


def test_acceptance_02_serre_duality_sweep(F=QQ):
    start = time.time()
    objs = catalog(F)
    assert len(objs) == 70
    for X, Y in itertools.product(objs, repeat=2):
        r = serre_check(X, Y)
        assert r.dims_match, (X, Y, r.dim_hom, r.dim_ext_twisted)
        if X.is_torsion_free() and Y.is_torsion_free():
            assert r.gram_nondegenerate, (X, Y)
    report(2, "serre duality sweep", start, 60, F)


def test_acceptance_03_almost_split_sequences(F=QQ):
    start = time.time()
    for m in range(2, 5):
        for a in range(-2, 3):
            mesh = almost_split(rank_two(F, m, a))
            assert mesh.middle_factors == (
                rank_two_label(m - 1, a - 1),
                rank_two_label(m + 1, a),
            )
            assert decompose(mesh.middle).factors == mesh.middle_factors
            assert mesh.left_label == serre_twist_label(mesh.right_label)
    for a in range(-2, 3):
        mesh = almost_split(rank_two(F, 1, a))
        assert mesh.middle_factors == (
            rank_one_label(0, a - 1),
            rank_one_label(1, a - 1),
            rank_two_label(2, a),
        )
        assert decompose(mesh.middle).factors == mesh.middle_factors
        assert mesh.left_label == serre_twist_label(mesh.right_label)
        for i in (0, 1):
            mesh = almost_split(rank_one(F, i, a))
            assert mesh.middle_factors == (rank_two_label(1, a),)
            assert decompose(mesh.middle).factors == mesh.middle_factors
            assert mesh.left_label == rank_one_label(1 - i, a - 1)
    report(3, "almost split sequences", start, 10, F)


def _figure_arrows(m_max, a_min, a_max):
    """Arrow set of the torsion-free component, from the mesh rule."""
    nodes = set()
    for a in range(a_min, a_max + 1):
        nodes.add(rank_one_label(0, a))
        nodes.add(rank_one_label(1, a))
        for m in range(1, m_max + 1):
            nodes.add(rank_two_label(m, a))
    arrows = set()
    for a in range(a_min, a_max + 1):
        for m in range(1, m_max + 1):
            down = (rank_two_label(m + 1, a), rank_two_label(m, a))
            up = (rank_two_label(m, a), rank_two_label(m + 1, a + 1))
            for e in (down, up):
                if e[0] in nodes and e[1] in nodes:
                    arrows.add(e)
        for i in (0, 1):
            out_edge = (rank_two_label(1, a), rank_one_label(i, a))
            in_edge = (rank_one_label(i, a), rank_two_label(1, a + 1))
            for e in (out_edge, in_edge):
                if e[0] in nodes and e[1] in nodes:
                    arrows.add(e)
    return nodes, arrows


def test_acceptance_04_figure_window(F=QQ):
    # the window is built from labels by the mesh rule: it reads no field
    start = time.time()
    w = quiver_window(m_max=4, a_min=-1, a_max=3, n_max=1)
    got_nodes = {n for n in w.nodes if n.kind != "wing"}
    got_arrows = sorted(
        ((a, b) for a, b in w.arrows if a.kind != "wing" and b.kind != "wing"),
        key=lambda ab: (ab[0].sort_key(), ab[1].sort_key()),
    )
    want_nodes, want_arrows = _figure_arrows(4, -1, 3)
    assert got_nodes == want_nodes
    assert got_arrows == sorted(
        want_arrows, key=lambda ab: (ab[0].sort_key(), ab[1].sort_key())
    )
    # double arrows out of the first rank-two row into both rank-one rows
    for a in range(-1, 4):
        assert (rank_two_label(1, a), rank_one_label(0, a)) in got_arrows
        assert (rank_two_label(1, a), rank_one_label(1, a)) in got_arrows
    # translation agrees with the twist on every window node
    tau = dict(w.translation)
    for node, image in tau.items():
        assert image == serre_twist_label(node)
    # over F: each non-wing node's built middle splits into the mesh rule's
    # factors, and each arrow's ends have a nonzero Hom
    for node in got_nodes:
        mesh = almost_split(label_to_object(F, node))
        assert decompose(mesh.middle).factors == mesh.middle_factors, node
    for a, b in w.arrows:
        assert hom_space(label_to_object(F, a), label_to_object(F, b)).dim > 0, (a, b)
    report(4, "figure window reproduction", start, 10, F)


def _random_label(rng, max_param):
    kind = rng.choice(["r1", "r2", "t"])
    a = rng.randint(-max_param, max_param)
    if kind == "r1":
        return rank_one_label(rng.randint(0, 1), a)
    if kind == "r2":
        return rank_two_label(rng.randint(1, max_param), a)
    return wing(rng.randint(1, max_param), a)


# the second batch of acceptance 05: a prime and a seed of its own per criterion field
SECOND_BATCH = {QQ: (GF(5), 13), GF(2): (GF(7), 17), GF(3): (GF(11), 19)}


def test_acceptance_05_krull_schmidt(F=QQ):
    start = time.time()
    other, other_seed = SECOND_BATCH[F]
    for field, count, seed in ((F, 100, 11), (other, 100, other_seed)):
        rng = random.Random(seed)
        for _ in range(count):
            labels = [
                _random_label(rng, 4) for _ in range(rng.randint(1, 6))
            ]
            X = direct_sum_many([label_to_object(field, l) for l in labels])[0]
            rng.randint(0, 10 ** 6)  # unused draw: keeps the sequence of sums stable
            dec = decompose(X)
            assert sorted(map(str, dec.factors)) == sorted(map(str, labels))
    report(5, "krull-schmidt 200 sums", start, 60, F)


def _space(kind, X, Y):
    return hom_space(X, Y) if kind == "hom" else ext_space(X, Y)


def _map_matrix(field, dom_basis, codom, images):
    """Matrix of a linear map given images of the basis, in coordinates."""
    cols = []
    for img in images:
        cols.append(codom(img))
    if not cols:
        return ()
    return linalg.transpose(cols)


def _six_term_check(field, seq, G):
    """Exactness of the contravariant six-term sequence against G."""
    Y, E, X = seq.left, seq.middle, seq.right
    spaces = [
        hom_space(X, G), hom_space(E, G), hom_space(Y, G),
        ext_space(X, G), ext_space(E, G), ext_space(Y, G),
    ]
    hom_coords = []
    for sp in spaces[:3]:
        vecs = [morphism_vector(m) for m in sp.basis]
        hom_coords.append(vecs)

    def hcoords(idx, m):
        coords = coords_in_basis(field, hom_coords[idx], morphism_vector(m))
        assert coords is not None
        return coords

    def ecoords(idx, c):
        return spaces[idx].coordinates(c)

    maps = []
    maps.append(
        _map_matrix(field, spaces[0].basis, lambda m: hcoords(1, m),
                    [yoneda_compose(f, seq.surject) for f in spaces[0].basis])
    )
    maps.append(
        _map_matrix(field, spaces[1].basis, lambda m: hcoords(2, m),
                    [yoneda_compose(f, seq.inject) for f in spaces[1].basis])
    )
    maps.append(
        _map_matrix(field, spaces[2].basis, lambda c: ecoords(3, c),
                    [yoneda_compose(h, seq.cls) for h in spaces[2].basis])
    )
    maps.append(
        _map_matrix(field, spaces[3].basis, lambda c: ecoords(4, c),
                    [yoneda_compose(c, seq.surject) for c in spaces[3].basis])
    )
    maps.append(
        _map_matrix(field, spaces[4].basis, lambda c: ecoords(5, c),
                    [yoneda_compose(c, seq.inject) for c in spaces[4].basis])
    )
    dims = [sp.dim for sp in spaces]
    ranks = [linalg.rank(field, M) if M else 0 for M in maps]
    # exact at each inner node, injective at the start, surjective at the end
    assert ranks[0] == dims[0], "first map is not injective"
    for k in range(1, 5):
        assert ranks[k] == dims[k] - ranks[k - 1], f"not exact at position {k}"
    assert dims[5] == ranks[4], "last map is not surjective"
    assert sum(dims[::2]) == sum(dims[1::2]), "alternating sum is nonzero"


def test_acceptance_06_hereditary_les(F=QQ):
    start = time.time()
    rng = random.Random(21)
    lattice_objs = [o for o in catalog(F, m_max=3, n_max=1, a_bound=2) if o.is_torsion_free()]
    torsion_objs = [torsion_cyclic(F, n, a) for n in (1, 2, 3) for a in (-1, 0, 1)]
    sequences = []
    # torsion-free extensions
    while len(sequences) < 40:
        X = rng.choice(lattice_objs)
        Y = rng.choice(lattice_objs)
        sp = ext_space(X, Y)
        if sp.dim == 0:
            continue
        sequences.append(extension_object(sp.basis[rng.randrange(sp.dim)]))
    # wing extensions
    while len(sequences) < 50:
        T = rng.choice(torsion_objs)
        VT = serre_twist(T)
        sp = ext_space(T, VT)
        if sp.dim == 0:
            continue
        sequences.append(extension_object(sp.basis[0]))
    probes = [rank_one(F, 0, 0), rank_two(F, 2, 1), torsion_cyclic(F, 2, 0)]
    for k, seq in enumerate(sequences):
        assert not seq.is_split()
        G = probes[k % len(probes)]
        _six_term_check(F, seq, G)
        # Euler additivity in both arguments
        for H in probes:
            chi_right = hom_space(seq.right, H).dim - ext_space(seq.right, H).dim
            chi_mid = hom_space(seq.middle, H).dim - ext_space(seq.middle, H).dim
            chi_left = hom_space(seq.left, H).dim - ext_space(seq.left, H).dim
            assert chi_mid == chi_left + chi_right
            chi_right = hom_space(H, seq.right).dim - ext_space(H, seq.right).dim
            chi_mid = hom_space(H, seq.middle).dim - ext_space(H, seq.middle).dim
            chi_left = hom_space(H, seq.left).dim - ext_space(H, seq.left).dim
            assert chi_mid == chi_left + chi_right
    report(6, "hereditary six-term sequences", start, 30, F)


def test_acceptance_07_no_projectives_no_injectives(F=QQ):
    start = time.time()
    for X in catalog(F):
        n_epi, n_mono = no_proj_no_inj_witness(X)
        assert 1 <= n_epi <= 3 and 1 <= n_mono <= 3
    report(7, "no projectives or injectives", start, 10, F)


def test_acceptance_08_singularity_correspondence(F=QQ):
    start = time.time()
    for m in range(1, 5):
        for a in range(-3, 4):
            assert singularity_index(rank_two(F, m, a)) == m
    torsion_free = [o for o in catalog(F) if o.is_torsion_free()]
    for X, Y in itertools.product(torsion_free, repeat=2):
        for f in hom_space(X, Y).basis:
            assert y_linearity_bound(f) <= 16
    rng = random.Random(31)
    for m in range(0, 6):
        u, v = ring_u(F, m), ring_v(F, m)
        assert v * v == (u ** m) * v
        for _ in range(10):
            d1, d2 = rng.randint(m, m + 3), rng.randint(m, m + 3)
            a = _random_hom_elt(F, rng, m, d1)
            b = _random_hom_elt(F, rng, m, d2)
            prod = a * b
            assert prod.is_homogeneous()
            RmElement(m, prod.f, prod.g)  # congruence maintained
    report(8, "singularity correspondence", start, 10, F)


def _random_hom_elt(F, rng, m, d):
    c1 = F.of_int(rng.randint(-3, 3))
    c2 = F.of_int(rng.randint(-3, 3)) if d >= m else c1
    return RmElement(
        m,
        Poly.monomial(F, c1, d) if c1 else Poly.zero(F),
        Poly.monomial(F, c2, d) if c2 else Poly.zero(F),
    )


def test_acceptance_09_truncated_oracle(F=QQ):
    start = time.time()
    objs = catalog(F)
    for X, Y in itertools.product(objs, repeat=2):
        assert hom_space(X, Y).dim == hom_dim_trunc(X, Y, -8, 8), (X, Y)
    report(9, "truncated-representation oracle", start, 60, F)


def test_acceptance_10_trace_map_laws(F=QQ):
    start = time.time()
    torsion_free = [o for o in catalog(F) if o.is_torsion_free()]
    # vanishing of the trace on restricted maps into the twist: 100 samples
    rng = random.Random(41)
    samples = 0
    while samples < 100:
        Fo = rng.choice(torsion_free)
        VF = serre_twist(Fo)
        basis = hom_kx_space(Fo, VF)
        if not basis:
            continue
        coeffs = [F.of_int(rng.randint(-4, 4)) for _ in basis]
        A = linalg.zeros(F, VF.rank, Fo.rank)
        for c, M in zip(coeffs, basis):
            A = linalg.mat_add(F, A, mat_scale(F, c, M))
        h01 = tuple(tuple(A[VF.p + i][k] for k in range(Fo.p)) for i in range(VF.q))
        h10 = tuple(tuple(A[i][Fo.p + k] for k in range(Fo.q)) for i in range(VF.p))
        trace_sum = F.add(linalg.trace(F, h01), linalg.trace(F, h10))
        assert trace_sum == F.zero
        assert ext_space(Fo, VF).reduce(h01, h10, ()).is_zero()
        samples += 1
    # adjunction on all catalog basis pairs
    for Fo, G in itertools.product(torsion_free, repeat=2):
        homs = hom_space(Fo, G).basis
        exts = ext_space(G, serre_twist(Fo)).basis
        for f in homs:
            for g in exts:
                assert eta(Fo, yoneda_compose(g, f)) == eta(
                    G, yoneda_compose(serre_twist_morphism(f), g)
                )
    # twist compatibility of the trace
    for X in torsion_free:
        VX = serre_twist(X)
        for c in ext_space(X, VX).basis:
            twisted = ext_space(VX, serre_twist(VX)).reduce(c.h10, c.h01, c.tor)
            assert eta(VX, twisted) == eta(X, c)
    report(10, "trace-map laws", start, 30, F)


CRITERIA = [
    test_acceptance_01_rank_one_tables,
    test_acceptance_02_serre_duality_sweep,
    test_acceptance_03_almost_split_sequences,
    test_acceptance_04_figure_window,
    test_acceptance_05_krull_schmidt,
    test_acceptance_06_hereditary_les,
    test_acceptance_07_no_projectives_no_injectives,
    test_acceptance_08_singularity_correspondence,
    test_acceptance_09_truncated_oracle,
    test_acceptance_10_trace_map_laws,
]


@pytest.mark.parametrize("F", [GF(2), GF(3)], ids=str)
@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda t: t.__name__[16:])
def test_acceptance_over_prime_fields(criterion, F):
    criterion(F)
