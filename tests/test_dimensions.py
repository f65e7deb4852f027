"""``homext.dimensions``: both dimensions from one Hom count.

The category is hereditary, so dim Ext is dim Hom less the Euler form, which
``euler_form`` counts with no elimination.  The differential tests hold
``dimensions`` to the ``dim`` of ``hom_space`` and ``ext_space`` on every
ordered pair of the label window F0/F1[a], F[m, a], T[n, a] (m, n <= 4,
|a| <= 3) and on seeded conjugated sums with torsion and rank-one parts, over
Q, GF(2) and GF(3).  The cost rows run the CLI's ``hom``, ``ext`` and
``euler`` on L_k = F[1, 0] + F[2, 1] + F[3, 2] + F[1, 0] + ... (k summands,
F[1 + i % 3, i % 3]) and count the systems handed to ``linalg._echelon``:
each command eliminates the Hom constraints alone, never the larger Ext
image, besides the one inversion of the generator matrix that each parsed
lattice makes on first read.
"""

import itertools
import random

import pytest

from zdinfty import cli, homext, linalg
from zdinfty.cli import run_command
from zdinfty.decomp import label_to_object, label_window
from zdinfty.fields import GF, QQ
from zdinfty.homext import dimensions, ext_space, hom_space

from oracle_decomp import conjugated_sum
from test_lazy_hom import _cli_field

FIELDS = [QQ, GF(2), GF(3)]


def _assert_dimensions(X, Y):
    assert dimensions(X, Y) == (hom_space(X, Y).dim, ext_space(X, Y).dim), (X, Y)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_dimensions_match_the_spaces_on_the_window(F):
    objs = [label_to_object(F, label) for label in label_window(4, 4, -3, 3)]
    assert len(objs) == 70
    for X, Y in itertools.product(objs, repeat=2):
        _assert_dimensions(X, Y)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_dimensions_match_the_spaces_on_conjugated_sums(F):
    rng = random.Random(47)
    # (rank-two, torsion, rank-one) summands
    shapes = [(rng.randint(1, 2), rng.randint(0, 2), rng.randint(0, 1)) for _ in range(40)]
    assert any(t and r1 for _, t, r1 in shapes) and any(not t for _, t, _ in shapes)
    sums = [conjugated_sum(F, rng, shape)[0] for shape in shapes]
    for X, Y in zip(sums[::2], sums[1::2]):
        _assert_dimensions(X, Y)


def _count_systems(monkeypatch) -> dict:
    """Record the cells (rows x columns) of each system handed to
    ``linalg._echelon``, those of a ``linalg.inverse`` under "inverse" and
    the others under "systems", and count the calls of ``_ext_count``."""
    seen = {"systems": [], "inverse": [], "_ext_count": 0}
    inverting = []
    echelon, inverse, ext_count = linalg._echelon, linalg.inverse, homext._ext_count

    def counted_echelon(F, rows):
        rows = list(rows)
        seen["inverse" if inverting else "systems"].append(len(rows) * len(rows[0]))
        return echelon(F, rows)

    def counted_inverse(F, A):
        inverting.append(A)
        try:
            return inverse(F, A)
        finally:
            inverting.pop()

    def counted_ext_count(X, Y):
        seen["_ext_count"] += 1
        return ext_count(X, Y)

    monkeypatch.setattr(linalg, "_echelon", counted_echelon)
    monkeypatch.setattr(linalg, "inverse", counted_inverse)
    monkeypatch.setattr(homext, "_ext_count", counted_ext_count)
    return seen


@pytest.mark.parametrize("k, hom_cells, inverse_cells", [(8, 10880, 512), (16, 174592, 2048)])
@pytest.mark.parametrize("F", [QQ, GF(3)], ids=str)
def test_cli_dimensions_eliminate_the_hom_system_alone(F, k, hom_cells, inverse_cells, monkeypatch):
    # the Ext image of L_k has 21,888 cells at k = 8 and 349,696 at k = 16
    L = " + ".join(f"F[{1 + i % 3},{i % 3}]" for i in range(k))
    seen = _count_systems(monkeypatch)
    for command in ("hom", "ext", "euler"):
        seen.update(systems=[], inverse=[], _ext_count=0)
        code, _ = run_command(["--field", _cli_field(F), command, L, L])
        assert code == 0, command
        assert seen == {"systems": [hom_cells], "inverse": [inverse_cells], "_ext_count": 0}, command


MIXED = (
    '{"field": "Fp:3", "lattice": {"p": 1, "q": 1, "gens": [{"jump": 0, "dir": [1, 2]},'
    ' {"jump": 2, "dir": [1, 0]}, {"jump": 2, "dir": [0, 1]}]}}'
)


@pytest.mark.parametrize("command", ["hom", "ext", "euler"])
def test_mixed_fields_exit_2_before_any_elimination(command, monkeypatch):
    seen = _count_systems(monkeypatch)
    parse = cli.parse_object

    def parsed(text, field):
        X = parse(text, field)
        seen["systems"].clear()  # the literal's own canonical form
        return X

    monkeypatch.setattr(cli, "parse_object", parsed)
    assert run_command([command, MIXED, "F[2,0]"]) == (2, "error: cannot mix F3 and Q")
    assert seen == {"systems": [], "inverse": [], "_ext_count": 0}
