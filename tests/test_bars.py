"""Differential test of the elder-rule bar sweep in window.reconstruct_parts.

Every window that extension_object builds for a seeded random class with
torsion at either end goes through both the sweep and the rank
inclusion-exclusion reference in oracle_bars, which also checks that the
returned basis is an equivariant isomorphism onto the canonical middle.
"""

import random

import pytest

from zdinfty import window
from zdinfty.ar import class_of_sequence, extension_object, verify_exact
from zdinfty.fields import GF, QQ
from zdinfty.homext import ext_space
from zdinfty.objects import direct_sum_many, rank_one, rank_two, torsion_cyclic

from oracle_bars import checked_reconstruct


def random_sum(field, rng):
    """A sum of 1-3 atoms with n <= 4, m <= 3 and |a| <= 2."""
    parts = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["r1", "r2", "t"])
        a = rng.randint(-2, 2)
        if kind == "r1":
            parts.append(rank_one(field, rng.randint(0, 1), a))
        elif kind == "r2":
            parts.append(rank_two(field, rng.randint(1, 3), a))
        else:
            parts.append(torsion_cyclic(field, rng.randint(1, 4), a))
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
    rng = random.Random(seed)
    built = 0
    while built < 40:
        X, Y = random_sum(field, rng), random_sum(field, rng)
        if X.is_torsion_free() and Y.is_torsion_free():
            continue
        space = ext_space(X, Y)
        if space.dim == 0:
            continue
        cls = random_class(space, rng)
        if cls.is_zero():
            continue
        seq = extension_object(cls)
        verify_exact(seq)
        assert class_of_sequence(seq.inject, seq.surject) == cls
        built += 1
    assert len(seen) == built
