"""Cost and memory contracts of the Hom and Ext paths on sums.

L_k is the sum F[1, 0] + F[2, 1] + F[3, 2] + F[1, 0] + ... of k rank-two
atoms (F[1 + i % 3, i % 3]).  The cost rows count the cells (rows x
columns) of each system that ``hom_space``, ``ext_space``, ``serre_check``
and ``euler_form`` on (L_k, L_k) hand to ``linalg._echelon``, with the
lattice caches of L_k and of its twist warmed first and the systems of
``linalg.inverse`` counted apart.  They pin the figures at k = 8 and 16 and
the growth of each op's total per doubling (the cells grow as k^4), and
check each answer by additivity over the atom pairs, so a fast wrong path
fails too.  On the torsion-heavy M_k (L_4 plus k torsion summands) the
same ops hand the kernel only the cells of the L_4 part at k = 8 and 16:
torsion is counted by its bars.  The mixed pairs P_k (split sums with
torsion on one side and lines on the other) and C_k (conjugated sums) pin
the cells of ``hom_space``, ``ext_space`` and ``serre_check`` at two sizes
and their growth, each answer checked by additivity over the summand pairs
or over the labels drawn.  The echelon rows show that a space keeps
the very echelon its count returned, and the memory rows that it keeps no
copy of its rows: the ``tracemalloc`` peak of building a space is at most
1.1 times that of its count alone.  The ``decompose`` rows count, per call,
the ``Echelon.add`` calls, the stored rows each add visits and the cells
added, on F[2, 0]^k, L_k and L'_k (the sum of F[1 + i % 2, -(i % 3)]),
whose sweep kills some bars while others live on; they pin ceilings at
k = 8 and 16 and on the growth per doubling, and check the factors against
the summands' labels.  On the same families the product rows count, per
``decompose``, the rows times the vector's nonzeros handed to
``linalg.mat_vec``, the entries it reads, with a ceiling per size and per
doubling.
The fast-path rows pin three shortcuts by their calls: ``decompose`` calls
``linalg.elder_kills`` only at a jump where some live bar's column is
nonzero, never at the top jump, and ``linalg.nullspace`` only at a jump
where an F0 line starts, never for an F1 line, whose C_e it reads off the
canonical rows; ``cli.parse_object`` builds no sum for one atom.
"""

import gc
import itertools
import random
import tracemalloc

import pytest

from zdinfty import cli, homext, linalg
from zdinfty.decomp import decompose, identify
from zdinfty.fields import GF, QQ
from zdinfty.homext import euler_form, ext_space, hom_space, serre_check
from zdinfty.objects import direct_sum_many, rank_one, rank_two, serre_twist, torsion_cyclic

from oracle_decomp import conjugated_sum
from test_dimensions import _count_systems

FIELDS = [QQ, GF(3)]
GROWTH = 17  # per doubling of k


def _report(X, Y):
    r = serre_check(X, Y)
    return r.dim_hom, r.dim_ext_twisted, r.gram_rank


# op -> (its answer as a tuple of counts, cells at k = 8, cells at k = 16)
OPS = {
    "hom_space": (lambda X, Y: (hom_space(X, Y).dim,), [10880], [174592]),
    "ext_space": (lambda X, Y: (ext_space(X, Y).dim,), [21888], [349696]),
    "serre_check": (_report, [10880, 10880, 7225], [174592, 174592, 116281]),
    "euler_form": (lambda X, Y: (euler_form(X, Y),), [], []),
}


def _atoms(F) -> list:
    return [rank_two(F, 1 + r, r) for r in range(3)]


def _sum(F, k):
    """L_k, with the lattice caches of it and its twist warmed."""
    L = direct_sum_many([_atoms(F)[i % 3] for i in range(k)])[0]
    for Z in (L, serre_twist(L)):
        Z.lattice.annihilator_at(0)
    return L


def _by_atoms(answer, F, k) -> tuple:
    """The answer on (L_k, L_k) summed over its atom pairs: atom r occurs
    once for each i < k with i % 3 == r."""
    atoms = _atoms(F)
    count = [len(range(r, k, 3)) for r in range(3)]
    total = None
    for r, s in itertools.product(range(3), repeat=2):
        part = [count[r] * count[s] * c for c in answer(atoms[r], atoms[s])]
        total = part if total is None else [a + b for a, b in zip(total, part)]
    return tuple(total)


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_cells_per_op_on_sums(F, op, monkeypatch):
    answer, *cells = OPS[op]
    seen = _count_systems(monkeypatch)
    totals = []
    for k, expected in zip((8, 16), cells):
        L = _sum(F, k)
        by_atoms = _by_atoms(answer, F, k)
        seen["systems"].clear()
        assert answer(L, L) == by_atoms, (op, k)
        assert seen["systems"] == expected, (op, k)
        totals.append(sum(seen["systems"]))
    assert totals[1] <= GROWTH * totals[0], op


# M_k: the summands of L_4 plus T[3 + i % 5, i % 4] for i < k.  Torsion is
# counted by its bars, so each op hands the kernel the cells of the L_4 part
# alone, at every k; on torsion serre_check builds no Gram
TORSION_OPS = {
    "hom_space": (lambda X, Y: (hom_space(X, Y).dim,), [672]),
    "ext_space": (lambda X, Y: (ext_space(X, Y).dim,), [1376]),
    "serre_check": (lambda X, Y: _report(X, Y)[:2], [672, 672]),
}


def _torsion_heavy(F, k) -> list:
    return [_atoms(F)[i % 3] for i in range(4)] + [
        torsion_cyclic(F, 3 + i % 5, i % 4) for i in range(k)
    ]


@pytest.mark.parametrize("op", TORSION_OPS)
@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_cells_per_op_on_torsion_heavy_sums(F, op, monkeypatch):
    answer, cells = TORSION_OPS[op]
    seen = _count_systems(monkeypatch)
    totals = []
    for k in (8, 16):
        parts = _torsion_heavy(F, k)
        M = direct_sum_many(parts)[0]
        for Z in (M, serre_twist(M)):
            Z.lattice.annihilator_at(0)
        by_parts = [sum(c) for c in zip(*(answer(X, Y) for X in parts for Y in parts))]
        seen["systems"].clear()
        assert list(answer(M, M)) == by_parts, (op, k)
        assert seen["systems"] == cells, (op, k)
        totals.append(sum(seen["systems"]))
    assert totals[1] == totals[0], op


# P_k: X is L_k plus the first k / 2 torsion summands of M_k, Y is L'_k
# plus the lines F_{i % 2}[i % 3] for i < k / 4.  C_k: a conjugated pair from
# oracle_decomp.conjugated_sum, X of shape (k, 2, 1) drawn with Random(k)
# and Y of shape (k, 3, 2) with Random(1000 + k).  (family, field) -> op ->
# cells at the two sizes.  Over GF(3) the conjugators of C_k are drawn
# otherwise (a singular draw mod 3 is redrawn), and its Ext system differs
PAIR_OPS = {"hom_space": OPS["hom_space"][0], "ext_space": OPS["ext_space"][0],
            "serre_check": TORSION_OPS["serre_check"][0]}
P_CELLS = {"hom_space": ([25056], [408384]), "ext_space": ([13680], [196416]),
           "serre_check": ([25056, 25056], [408384, 408384])}
C_CELLS = {"hom_space": ([1800], [20482]), "ext_space": ([2025], [23408]),
           "serre_check": ([1800, 1980], [20482, 23408])}
PAIR_CELLS = {("P_k", "Q"): P_CELLS, ("P_k", "F3"): P_CELLS, ("C_k", "Q"): C_CELLS,
              ("C_k", "F3"): dict(C_CELLS, ext_space=([1935], [23104]))}


def _split_pair(F, k) -> tuple:
    """P_k's summands of X and of Y."""
    xs = [_atoms(F)[i % 3] for i in range(k)] + [
        torsion_cyclic(F, 3 + i % 5, i % 4) for i in range(k // 2)
    ]
    ys = DECOMPOSE["L'_k"][0](F, k) + [rank_one(F, i % 2, i % 3) for i in range(k // 4)]
    return direct_sum_many(xs)[0], direct_sum_many(ys)[0], xs, ys


def _conjugated_pair(F, k) -> tuple:
    """C_k's X and Y, and the objects of the labels each was drawn from."""
    X, xs = conjugated_sum(F, random.Random(k), (k, 2, 1))
    Y, ys = conjugated_sum(F, random.Random(1000 + k), (k, 3, 2))
    return X, Y, [cli.parse_object(t, F) for t in xs], [cli.parse_object(t, F) for t in ys]


# family -> (its pair, its sizes, ceiling on the growth of each op's cells)
PAIRS = {"P_k": (_split_pair, (8, 16), 17), "C_k": (_conjugated_pair, (4, 8), 12)}


@pytest.mark.parametrize("op", PAIR_OPS)
@pytest.mark.parametrize("family", PAIRS)
@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_cells_per_op_on_mixed_pairs(F, family, op, monkeypatch):
    answer, (pair, sizes, growth) = PAIR_OPS[op], PAIRS[family]
    seen = _count_systems(monkeypatch)
    totals = []
    for k, cells in zip(sizes, PAIR_CELLS[family, str(F)][op]):
        X, Y, xs, ys = pair(F, k)
        for Z in (X, Y, serre_twist(X), serre_twist(Y)):
            Z.lattice.annihilator_at(0)
        by_parts = [sum(c) for c in zip(*(answer(A, B) for A in xs for B in ys))]
        seen["systems"].clear()
        assert list(answer(X, Y)) == by_parts, (family, op, k)
        assert seen["systems"] == cells, (family, op, k)
        totals.append(sum(seen["systems"]))
    assert totals[1] <= growth * totals[0], (family, op, totals)


def _recorded(monkeypatch, name) -> list:
    """Record what each call of ``homext.<name>`` returns."""
    returned = []
    count = getattr(homext, name)

    def recorded(X, Y):
        returned.append(count(X, Y))
        return returned[-1]

    monkeypatch.setattr(homext, name, recorded)
    return returned


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_spaces_keep_their_counts_echelon(F, monkeypatch):
    homs, exts = _recorded(monkeypatch, "_hom_count"), _recorded(monkeypatch, "_ext_count")
    L, T = _sum(F, 8), torsion_cyclic(F, 2, 0)
    for X in (L, T):
        assert hom_space(X, X).echelon is homs[-1][0]
        assert ext_space(X, X).echelon is exts[-1][0]
    # torsion has no lattice constraint: its Hom keeps the one empty echelon
    assert homs[-1][0] is linalg.NO_ROWS and linalg.NO_ROWS.rows == ()


def _peak(build, X) -> int:
    """The ``tracemalloc`` peak of ``build(X, X)``, from a collected heap."""
    gc.collect()
    tracemalloc.start()
    try:
        build(X, X)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k", [8, 16])
@pytest.mark.parametrize("space, count", [(hom_space, "_hom_count"), (ext_space, "_ext_count")])
@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_a_space_peaks_as_its_count(F, space, count, k):
    L = _sum(F, k)
    kept, counted = _peak(space, L), _peak(getattr(homext, count), L)
    assert kept <= 1.1 * counted, (kept, counted)


# family -> (its k summands, (adds, visits, cells) at k = 8, at k = 16), the
# same over Q and GF(3)
DECOMPOSE = {
    "F[2,0]^k": (lambda F, k: [rank_two(F, 2, 0)] * k, (24, 84, 192), (48, 360, 768)),
    "L_k": (lambda F, k: [_atoms(F)[i % 3] for i in range(k)], (61, 174, 416), (125, 780, 1746)),
    "L'_k": (
        lambda F, k: [rank_two(F, 1 + i % 2, -(i % 3)) for i in range(k)],
        (54, 133, 340),
        (112, 602, 1414),
    ),
}
DECOMPOSE_GROWTH = (2.1, 4.6, 4.5)  # per doubling of k: adds, visits, cells


def _count_adds(monkeypatch) -> list:
    """Count ``Echelon.add`` calls, the stored rows each visits and the
    cells each adds."""
    counts = [0, 0, 0]
    add = linalg.Echelon.add

    def counted(self, v):
        counts[0] += 1
        counts[1] += len(self.rows)
        counts[2] += len(v)
        return add(self, v)

    monkeypatch.setattr(linalg.Echelon, "add", counted)
    return counts


@pytest.mark.parametrize("family", DECOMPOSE)
@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_decompose_adds_visits_and_cells(F, family, monkeypatch):
    summands, *ceilings = DECOMPOSE[family]
    counts = _count_adds(monkeypatch)
    seen = []
    for k, ceiling in zip((8, 16), ceilings):
        parts = summands(F, k)
        X = direct_sum_many(parts)[0]
        X.lattice.annihilator_at(0)
        counts[:] = [0, 0, 0]
        factors = decompose(X).factors
        assert all(c <= top for c, top in zip(counts, ceiling)), (family, k, counts)
        assert sorted(map(str, factors)) == sorted(str(identify(Z)) for Z in parts)
        seen.append(list(counts))
    for small, big, growth in zip(*seen, DECOMPOSE_GROWTH):
        assert big <= growth * small, (family, seen)


# family -> rows x nonzeros of the vector handed to linalg.mat_vec (and so
# read by it) per decompose at k = 8 and 16, the same over Q and GF(3).
# The sweep and the certificate work over the full width, so the reads grow
# about 4 times per doubling of k
PRODUCT_READS = {"F[2,0]^k": (128, 512), "L_k": (332, 1390), "L'_k": (397, 1614)}
PRODUCT_GROWTH = 4.2


def _count_product_reads(monkeypatch) -> list:
    """Count the rows times the vector's nonzeros of each ``mat_vec`` call,
    those made through ``mm`` included."""
    reads = [0]
    mat_vec = linalg.mat_vec

    def counted(F, A, v):
        reads[0] += len(A) * sum(1 for b in v if b)
        return mat_vec(F, A, v)

    monkeypatch.setattr(linalg, "mat_vec", counted)
    return reads


@pytest.mark.parametrize("family", DECOMPOSE)
@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_decompose_product_reads(F, family, monkeypatch):
    reads = _count_product_reads(monkeypatch)
    seen = []
    for k, ceiling in zip((8, 16), PRODUCT_READS[family]):
        parts = DECOMPOSE[family][0](F, k)
        X = direct_sum_many(parts)[0]
        X.lattice.annihilator_at(0)
        reads[0] = 0
        factors = decompose(X).factors
        assert reads[0] <= ceiling, (family, k, reads[0])
        assert sorted(map(str, factors)) == sorted(str(identify(Z)) for Z in parts)
        seen.append(reads[0])
    assert seen[1] <= PRODUCT_GROWTH * seen[0], (family, seen)


# family -> elder_kills calls per decompose, at every k: a jump where every
# live bar's column is zero (always the top jump) eliminates nothing
ELDER_KILLS = {"F[2,0]^k": 0, "L_k": 2, "L'_k": 3}


def _calls(monkeypatch, module, name) -> list:
    """Record the arguments of each call of ``module.<name>``."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("family", DECOMPOSE)
@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_decompose_skips_kill_steps_where_no_column_is_nonzero(F, family, monkeypatch):
    calls = _calls(monkeypatch, linalg, "elder_kills")
    for k in (8, 16):
        X = direct_sum_many(DECOMPOSE[family][0](F, k))[0]
        calls.clear()
        decompose(X)
        assert len(calls) == ELDER_KILLS[family], (family, k, len(calls))


# L_k plus the lines rank_one(F, i % 2, i % 3), i < k / 4: Echelon.add calls
# per decompose at k = 8 and 16, and their growth per doubling of k
LINES_ADDS, LINES_GROWTH = (83, 224), 2.7


def _with_lines(F, k) -> list:
    return [_atoms(F)[i % 3] for i in range(k)] + [rank_one(F, i % 2, i % 3) for i in range(k // 4)]


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_decompose_takes_a_nullspace_only_where_an_f0_starts(F, monkeypatch):
    calls = _calls(monkeypatch, linalg, "nullspace")
    counts = _count_adds(monkeypatch)
    adds = []
    for k, ceiling in zip((8, 16), LINES_ADDS):
        parts = _with_lines(F, k)
        X = direct_sum_many(parts)[0]
        X.lattice.annihilator_at(0)
        calls.clear()
        counts[0] = 0
        factors = decompose(X).factors
        f0_jumps = {Z.lattice.steps[0][0] for Z in parts if (Z.p, Z.q) == (1, 0)}
        assert len(calls) == len(f0_jumps), (k, len(calls))
        assert counts[0] <= ceiling, (k, counts[0])
        assert sorted(map(str, factors)) == sorted(str(identify(Z)) for Z in parts)
        adds.append(counts[0])
    assert adds[1] <= LINES_GROWTH * adds[0], adds


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_one_atom_parses_without_a_sum(F, monkeypatch):
    calls = _calls(monkeypatch, cli, "direct_sum_many")
    for text, sums, printed in (
        ("F[2,0]", 0, "F[2,0]"),
        ("T[1,0]", 0, "T[1,0]"),
        ("F1[-1]", 0, "F1[-1]"),
        ("F[2,0] + T[1,0]", 1, "F[2,0] + T[1,0]"),
    ):
        calls.clear()
        X = cli.parse_object(text, F)
        assert len(calls) == sums, text
        assert cli.print_object(X) == printed
