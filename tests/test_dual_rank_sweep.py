"""The Krull-Schmidt sweep eliminates only where an F0 line can start.

``decomp._lattice_pieces`` reads dim A_e off the ranks of the dual rows'
type-0 blocks, eliminated once, last row first, and eliminates A_e only
where an F0 starts.  C_e is never eliminated: the rows of S_e with a V1
pivot, cut to V1, are one list that is both dim C_e and the reduced
echelon basis of C_e.  The sweep feeds the born bars' u's and w's to their
spans only at a jump where an F0 or F1 line is tested.  The count tests
show that a sum of rank-two atoms takes no nullspace and feeds no span,
and that a sum with rank-one atoms takes one nullspace per jump where an
F0 starts and none for an F1.  A differential test holds the sweep's list
of V1 rows at every jump, by ``repr``, to the reduced echelon form of the
nullspace of the type-1 tails of the annihilators.  The other differential
tests hold the pieces, by ``repr`` so that scalar types count, and the
certificate's verdicts, on the sweep's pieces and on mutations of them, to
``oracle_decomp``'s nullspace sweep and membership certificate.
"""

import random
import sys

import pytest

from zdinfty import decomp, linalg
from zdinfty.decomp import rank_one_label, rank_two_label, wing
from zdinfty.errors import DimensionMismatch
from zdinfty.fields import GF, QQ
from zdinfty.objects import CObject, TorsionPart, direct_sum_many, rank_one, rank_two

import oracle_decomp
from test_exact_scalars import _conjugated_sum, _ks_shapes
from test_sweep_births import _conjugated, _lattices

FIELDS = [QQ, GF(2), GF(3), GF(5)]


def _sweep_locals():
    """The locals of the running ``_lattice_pieces`` that called the
    patched function, or None outside the sweep."""
    frame = sys._getframe(2)
    while frame is not None and frame.f_code is not decomp._lattice_pieces.__code__:
        frame = frame.f_back
    return None if frame is None else frame.f_locals


def _counted_sweep(monkeypatch, L):
    """(pieces, nullspace calls made by the sweep, vectors added to its u
    and w spans)."""
    counts = {"nullspace": 0, "span": 0}
    nullspace, add = linalg.nullspace, linalg.Echelon.add

    def counted_nullspace(*args, **kwargs):
        counts["nullspace"] += _sweep_locals() is not None
        return nullspace(*args, **kwargs)

    def counted_add(self, v):
        names = _sweep_locals() or {}
        counts["span"] += any(self is names.get(span) for span in ("span0", "span1"))
        return add(self, v)

    L.annihilator_at(0)  # the dual rows are the lattice's, built before the sweep
    monkeypatch.setattr(linalg, "nullspace", counted_nullspace)
    monkeypatch.setattr(linalg.Echelon, "add", counted_add)
    pieces = decomp._lattice_pieces(L)
    monkeypatch.undo()
    return pieces, counts["nullspace"], counts["span"]


@pytest.mark.parametrize("F", [QQ, GF(2), GF(3)], ids=str)
def test_rank_two_sums_take_no_nullspace_and_feed_no_span(F, monkeypatch):
    rng = random.Random(41)
    lats = [direct_sum_many([rank_two(F, 2, 0)] * k)[0].lattice for k in range(1, 7)]
    lats += [oracle_decomp.conjugated_sum(F, rng, (r2, 0, 0))[0].lattice for r2 in (1, 2, 3, 4) * 3]
    lats += [_conjugated(F, rng, [rank_two(F, 2, 0)] * k) for k in (2, 3, 4)]
    for L in lats:
        pieces, nullspaces, fed = _counted_sweep(monkeypatch, L)
        assert {label.kind for label, _ in pieces} == {"rank_two"}, L
        assert (nullspaces, fed) == (0, 0), L


@pytest.mark.parametrize("F", [QQ, GF(2), GF(3)], ids=str)
def test_one_nullspace_per_jump_where_an_f0_starts(F, monkeypatch):
    rng = random.Random(43)
    shapes = [(r2, 0, r1) for r2 in range(4) for r1 in range(1, 5) if 2 * r2 + r1 <= 7]
    both = 0
    for shape in shapes * 3:
        L = oracle_decomp.conjugated_sum(F, rng, shape)[0].lattice
        pieces, nullspaces, _ = _counted_sweep(monkeypatch, L)
        starts = {label.params for label, _ in pieces if label.kind == "rank_one"}
        both += len(starts) > len({a for _, a in starts})
        assert starts and nullspaces == sum(i == 0 for i, _ in starts), (L, pieces)
    assert both  # some jump starts an F0 and an F1 line, and takes one nullspace


def _sweep_c_e(L) -> dict:
    """jump -> the list ``c_e`` that ``_lattice_pieces`` builds there, read
    off the running sweep's frame by a local trace function."""
    seen = {}
    code = decomp._lattice_pieces.__code__

    def local(frame, event, arg):
        names = frame.f_locals
        if "c_e" in names:  # the jump's last event sees the list built at it
            seen[names["e"]] = names["c_e"]
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        decomp._lattice_pieces(L)
    finally:
        sys.settrace(previous)
    return seen


def _split_lattices(F, rng) -> list:
    """Lattices of seeded sums of rank-one and rank-two atoms, unconjugated."""
    out = []
    for _ in range(20):
        parts = [rank_one(F, rng.randint(0, 1), rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))]
        parts += [rank_two(F, rng.randint(1, 3), rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))]
        if parts:
            out.append(direct_sum_many(parts)[0].lattice)
    return out


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_the_v1_rows_are_the_rref_of_c_e(F):
    rng = random.Random(59)
    lats = _split_lattices(F, rng)
    lats += [oracle_decomp.conjugated_sum(F, rng, shape)[0].lattice for shape in _ks_shapes()]
    lats += _lattices(F, random.Random(223))
    lines = 0
    for L in (L for L in lats if L.rank):
        c_e = _sweep_c_e(L)
        assert sorted(c_e) == [e for e, _ in L.steps], L
        for e, _ in L.steps:
            tails = [n[L.p:] for n in L.annihilator_at(e)]  # past dim S_e
            want = linalg.rref(F, linalg.nullspace(F, tails, ncols=L.q))[0]
            assert repr(tuple(c_e[e])) == repr(want), (L, e)
            lines += bool(want)
    assert lines


def _parent_pieces(X):
    """``decompose(X).pieces`` as the nullspace sweep gives them."""
    pieces = [(wing(n, a), idx) for idx, (n, a) in enumerate(X.torsion.summands)]
    pieces += oracle_decomp.nullspace_sweep_pieces(X.lattice)
    pieces.sort(key=lambda t: t[0].sort_key())
    return tuple(pieces)


def _objects(F):
    rng = random.Random(47)
    objs = [_conjugated_sum(F, rng, shape) for shape in _ks_shapes()]
    objs += [direct_sum_many([rank_two(F, 2, 0)] * k)[0] for k in range(2, 7)]
    objs += [CObject(F, TorsionPart(()), L) for L in _lattices(F, random.Random(223))]
    return [X for X in objs if not X.is_zero()]


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_pieces_match_the_nullspace_sweep(F):
    for X in _objects(F):
        assert repr(decomp.decompose(X).pieces) == repr(_parent_pieces(X)), X


def _verdict(certified, X, pieces):
    try:
        return certified(X, pieces)
    except DimensionMismatch:  # a swapped u and w of lengths p != q
        return DimensionMismatch


def _relabel(label, shift):
    kind, (m, a) = label.kind, label.params
    if kind == "rank_two":
        return rank_two_label(m, a + shift)
    return rank_one_label(m, a + shift)


def _mutations(F, pieces, rng):
    """The pieces with a column zeroed, a bar's u and w swapped, a jump
    shifted, two labels exchanged, or one column added to another."""
    lines = [k for k, (label, _) in enumerate(pieces) if label.kind != "wing"]
    bars = [k for k in lines if pieces[k][0].kind == "rank_two"]
    out = []
    for k in lines:
        label, cols = pieces[k]
        j = rng.randrange(len(cols))
        zeroed = cols[:j] + ((F.zero,) * len(cols[j]),) + cols[j + 1:]
        out.append(pieces[:k] + [(label, zeroed)] + pieces[k + 1:])
        out.append(pieces[:k] + [(_relabel(label, rng.choice((-1, 1))), cols)] + pieces[k + 1:])
    for k in bars:
        label, (u, w) = pieces[k]
        out.append(pieces[:k] + [(label, (w, u))] + pieces[k + 1:])
    for i, j in zip(lines, lines[1:]):
        (li, ci), (lj, cj) = pieces[i], pieces[j]
        if li.kind == lj.kind:
            swapped = list(pieces)
            swapped[i], swapped[j] = (lj, ci), (li, cj)
            out.append(swapped)
        if len(ci[0]) == len(cj[0]):
            summed = list(pieces)
            summed[i] = (li, (tuple(map(F.add, ci[0], cj[0])),) + ci[1:])
            out.append(summed)
    return out


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_certificate_verdicts_match_the_membership_certificate(F):
    rng = random.Random(53)
    verdicts = set()
    for X in _objects(F):
        pieces = list(decomp.decompose(X).pieces)
        assert decomp.pieces_certified(X, pieces) and oracle_decomp.pieces_certified(X, pieces)
        for mutant in _mutations(F, pieces, rng):
            got = _verdict(decomp.pieces_certified, X, mutant)
            assert got == _verdict(oracle_decomp.pieces_certified, X, mutant), (X, mutant)
            verdicts.add(got)
    assert {True, False} <= verdicts, verdicts
