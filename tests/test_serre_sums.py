"""Serre duality end to end on sums: Ext(X, Y) is dual to Hom(Y, VX).

V = ``serre_twist`` runs ``sigma_lattice`` and the shift on the object
itself, and ``dimensions`` counts each side through its factors, so the
two sides share only ``decompose`` and the label-pair count.  So
dim Ext(X, Y) = dim Hom(Y, VX) and dim Hom(X, Y) = dim Ext(Y, VX), checked
here on seeded split sums and on conjugated sums with torsion over Q, GF(2)
and GF(3), and through the CLI: ``ext X Y`` against ``hom Y Z`` (and
``hom X Y`` against ``ext Y Z``) with Z the text ``translate X`` prints.
"""

import random

import pytest

from zdinfty.cli import run_command
from zdinfty.decomp import dimensions
from zdinfty.fields import GF, QQ
from zdinfty.objects import direct_sum_many, rank_one, rank_two, serre_twist, torsion_cyclic

from oracle_decomp import conjugated_sum

FIELDS = [QQ, GF(2), GF(3)]
CLI_FIELD = {"Q": "Q", "F2": "Fp:2", "F3": "Fp:3"}


def _split_sum(F, rng):
    """A direct sum of 1-5 atoms drawn from every kind, unconjugated."""
    parts = []
    for _ in range(rng.randint(1, 5)):
        kind, a = rng.randrange(3), rng.randint(-2, 2)
        if kind == 0:
            parts.append(rank_two(F, rng.randint(1, 3), a))
        elif kind == 1:
            parts.append(torsion_cyclic(F, rng.randint(1, 3), a))
        else:
            parts.append(rank_one(F, rng.randint(0, 1), a))
    return direct_sum_many(parts)[0]


def _conjugated(F, rng):
    shape = rng.randint(0, 4), rng.randint(1, 3), rng.randint(0, 2)
    return conjugated_sum(F, rng, shape)[0]


@pytest.mark.parametrize("draw", [_split_sum, _conjugated], ids=["split", "conjugated"])
@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_serre_duality_holds_on_sums(F, draw):
    rng = random.Random(9)
    for trial in range(12):
        X, Y = draw(F, rng), draw(F, rng)
        hom, ext = dimensions(X, Y)
        assert dimensions(Y, serre_twist(X)) == (ext, hom), (trial, X, Y)


# (X, Y) as CLI sums: lines of both kinds, so the twist swaps unequal type
# blocks, beside rank-two and torsion summands
CLI_PAIRS = [
    ("F[2,0] + T[2,1] + F0[1]", "F[1,0] + F1[0] + T[3,0]"),
    ("F0[0] + F0[1] + F1[-1] + F[3,1]", "F[2,0] + F0[0] + T[1,0]"),
    ("T[3,0] + T[1,-1] + F[1,1]", "F1[0] + F1[2] + F[2,-1] + T[2,0]"),
]


def _dim(field, command, A, B) -> int:
    """The dimension ``hom A B`` or ``ext A B`` prints."""
    code, out = run_command([*field, command, A, B])
    assert code == 0, out
    return int(out.split(" = ")[1])


@pytest.mark.parametrize("X, Y", CLI_PAIRS)
@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_serre_duality_through_the_cli(F, X, Y):
    field = ["--field", CLI_FIELD[str(F)]]
    code, Z = run_command([*field, "translate", X])
    assert code == 0, Z
    assert _dim(field, "ext", X, Y) == _dim(field, "hom", Y, Z), (X, Y, Z)
    assert _dim(field, "hom", X, Y) == _dim(field, "ext", Y, Z), (X, Y, Z)
