"""Differential test of the elder-rule bar sweep in window.reconstruct_parts.

Every window that extension_object builds for a seeded random class with
a torsion part (one that glues torsion of X into Y) goes through both the
sweep and the rank inclusion-exclusion reference in oracle_bars, which also
checks that the returned basis is an equivariant isomorphism onto the
canonical middle.  Those windows list event degrees only; sweeping one
gives what sweeping its contiguous expansion gives.  No other class
reaches the sweep.  The shared kill step ``linalg.elder_kills`` matches
the bar-by-bar elder rule the sweep ran before it.
"""

import random

import pytest

from zdinfty import linalg, window
from zdinfty.ar import class_of_sequence, extension_object, verify_exact
from zdinfty.fields import GF, QQ
from zdinfty.homext import ext_space
from zdinfty.objects import direct_sum_many, rank_one, rank_two, torsion_cyclic

from oracle_bars import bar_by_bar_kills, checked_reconstruct, contiguous
from oracle_ses import split_sequence, zero_class


def random_sum(field, rng, max_bar=4):
    """A sum of 1-3 atoms with n <= max_bar, m <= 3 and |a| <= 2."""
    parts = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["r1", "r2", "t"])
        a = rng.randint(-2, 2)
        if kind == "r1":
            parts.append(rank_one(field, rng.randint(0, 1), a))
        elif kind == "r2":
            parts.append(rank_two(field, rng.randint(1, 3), a))
        else:
            parts.append(torsion_cyclic(field, rng.randint(1, max_bar), a))
    return direct_sum_many(parts)[0]


def random_class(space, rng):
    """A random combination of the basis classes of an extension space."""
    F = space.src.field

    def combine(blocks):
        acc = [[F.zero] * len(row) for row in blocks[0]]
        for c, block in zip(coeffs, blocks):
            for row_acc, row in zip(acc, block):
                for k, entry in enumerate(row):
                    row_acc[k] = F.add(row_acc[k], F.mul(c, entry))
        return tuple(map(tuple, acc))

    coeffs = [F.of_int(rng.randint(-2, 2)) for _ in space.basis]
    return space.reduce(
        combine([b.h01 for b in space.basis]),
        combine([b.h10 for b in space.basis]),
        combine([b.tor for b in space.basis]),
    )


@pytest.mark.parametrize("field,seed", [(QQ, 31), (GF(2), 32), (GF(3), 33)])
def test_bar_sweep_matches_rank_reference(field, seed, monkeypatch):
    seen = []
    monkeypatch.setattr(
        window, "reconstruct_parts", checked_reconstruct(window.reconstruct_parts, seen)
    )
    built = 0
    for cls in nonzero_classes(field, random.Random(seed), 4, 40):
        seq = extension_object(cls)
        verify_exact(seq)
        assert class_of_sequence(seq.inject, seq.surject) == cls
        built += 1
    assert len(seen) == built


def nonzero_classes(field, rng, max_bar, count):
    """``count`` seeded classes with a torsion part, drawn among the nonzero
    classes with torsion at either end: only they go through the sweep."""
    out = []
    while len(out) < count:
        X, Y = random_sum(field, rng, max_bar), random_sum(field, rng, max_bar)
        if X.is_torsion_free() and Y.is_torsion_free():
            continue
        space = ext_space(X, Y)
        if space.dim == 0:
            continue
        cls = random_class(space, rng)
        if any(map(any, cls.tor)):
            out.append(cls)
    return out


@pytest.mark.parametrize("field,seed", [(QQ, 34), (GF(2), 35), (GF(3), 36)])
def test_event_window_matches_its_contiguous_expansion(field, seed, monkeypatch):
    real = window.reconstruct_parts
    windows = []

    def record(wm, chart, p, q):
        windows.append((wm, chart, p, q))
        return real(wm, chart, p, q)

    monkeypatch.setattr(window, "reconstruct_parts", record)
    for cls in nonzero_classes(field, random.Random(seed), 30, 12):
        extension_object(cls)
    assert len(windows) == 12
    listed = full_width = 0
    for wm, chart, p, q in windows:
        full = contiguous(wm)
        summands, lat, basis = real(wm, chart, p, q)
        full_summands, full_lat, full_basis = real(full, chart, p, q)
        assert (summands, lat) == (full_summands, full_lat)
        assert set(basis) == set(wm.degrees)
        for d in wm.degrees:
            assert basis[d] == full_basis[d], d
        listed += len(wm.degrees)
        full_width += len(full.degrees)
    assert listed < full_width


@pytest.mark.parametrize("field,seed", [(QQ, 37), (GF(2), 38), (GF(3), 39)])
def test_sweep_runs_only_on_classes_that_glue_torsion(field, seed, monkeypatch):
    # Ext(lattice, torsion) = 0, so a class with no torsion part is its
    # twisted frame: split classes, lattice classes with torsion at either
    # end and classes from a torsion-free X into a Y with torsion never
    # reach the sweep, and a class with a torsion part reaches it once
    real = window.reconstruct_parts
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(window, "reconstruct_parts", counted)
    rng = random.Random(seed)
    kinds = {"split": 0, "lattice, torsion in X": 0, "into torsion of Y": 0, "glued": 0}
    for _ in range(80):
        X, Y = random_sum(field, rng), random_sum(field, rng)
        if X.is_torsion_free() and Y.is_torsion_free():
            continue
        space = ext_space(X, Y)
        classes = [zero_class(X, Y), *space.basis]
        classes += [random_class(space, rng)] if space.dim else []
        for cls in classes:
            glued = any(map(any, cls.tor))
            if glued:
                kind = "glued"
            elif cls.is_zero():
                kind = "split"
            elif X.is_torsion_free():
                kind = "into torsion of Y"
            else:
                kind = "lattice, torsion in X"
            kinds[kind] += 1
            calls.clear()
            seq = extension_object(cls)
            assert len(calls) == glued, kind
            assert class_of_sequence(seq.inject, seq.surject) == cls
        calls.clear()
        split_sequence(Y, X)
        assert not calls
    assert min(kinds.values()) >= 5, kinds


def planted_columns(field, rng):
    """1-8 columns of length 0-5, one per live bar, elder first; about half
    are planted combinations of the columns before them."""
    m = rng.randint(0, 5)
    columns = []
    for _ in range(rng.randint(1, 8)):
        if columns and rng.random() < 0.5:
            coeffs = [field.of_int(rng.randint(-2, 2)) for _ in columns]
            columns.append(linalg.mat_vec(field, linalg.transpose(columns), coeffs))
        else:
            columns.append(tuple(field.of_int(rng.randint(-3, 3)) for _ in range(m)))
    return columns


@pytest.mark.parametrize("field,seed", [(QQ, 44), (GF(2), 45), (GF(3), 46)])
def test_shared_kill_step_matches_bar_by_bar_elder_rule(field, seed):
    # elder_kills lists the dying bars elder first, as the bar-by-bar loop
    # does: it must kill the same bars with the same combinations
    rng = random.Random(seed)
    killed = several = 0
    for _ in range(400):
        columns = planted_columns(field, rng)
        kills, dying = linalg.elder_kills(field, columns)
        got = list(zip(dying, kills))
        assert got == bar_by_bar_kills(field, columns)
        killed += len(got)
        several += len(got) > 1
    assert killed >= 400 and several >= 100, (killed, several)
