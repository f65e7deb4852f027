"""``decomp.dimensions``: both dimensions summed over pairs of factors.

Both dimensions are additive over direct sums and invariant under
isomorphism, so ``dimensions`` decomposes both objects and sums, over the
distinct label pairs, the multiplicities times the pair's Hom count and
Euler form.  The differential tests hold it to the whole-system count of
``oracle_frame`` and to the ``dim`` of ``hom_space`` and ``ext_space`` on
every ordered pair of the label window F0/F1[a], F[m, a], T[n, a] (m, n <= 4,
|a| <= 3) and on seeded conjugated sums with torsion and rank-one parts, over
Q, GF(2) and GF(3), and to the whole-system count on seeded split sums up to
32 atoms.  The cost rows run the CLI's ``hom``, ``ext`` and ``euler`` on
L_k = F[1, 0] + F[2, 1] + F[3, 2] + F[1, 0] + ... (k summands,
F[1 + i % 3, i % 3]) and count the systems handed to ``linalg._echelon``:
each command eliminates ``decompose``'s systems on both sides and one small
Hom system per pair of the three distinct labels, never an Ext image, and
inverts the generator matrix of each parsed sum and of each label.  The
CLI parses each distinct object text once: ``hom L L`` makes one
``parse_object`` call, and the same sum under two spellings makes two and
prints the same.
"""

import itertools
import random

import pytest

from zdinfty import cli, homext, linalg
from zdinfty.cli import run_command
from zdinfty.decomp import dimensions, label_to_object, label_window
from zdinfty.fields import GF, QQ
from zdinfty.homext import ext_space, hom_space
from zdinfty.objects import direct_sum_many, rank_two

from oracle_decomp import conjugated_sum
from oracle_frame import frame_dimensions
from test_lazy_hom import _cli_field

FIELDS = [QQ, GF(2), GF(3)]


def _assert_dimensions(X, Y):
    spaces = (hom_space(X, Y).dim, ext_space(X, Y).dim)
    assert dimensions(X, Y) == frame_dimensions(X, Y) == spaces, (X, Y)


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


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_factor_path_matches_the_frame_on_split_sums(F):
    rng = random.Random(55)
    atoms = [label_to_object(F, label) for label in label_window(3, 3, -2, 2)]
    for k in (1, 2, 4, 8, 16, 32):
        X, Y = (direct_sum_many([rng.choice(atoms) for _ in range(k)])[0] for _ in "XY")
        assert dimensions(X, Y) == frame_dimensions(X, Y), k
    L = direct_sum_many([rank_two(F, 1 + i % 3, i % 3) for i in range(32)])[0]
    assert dimensions(L, L) == frame_dimensions(L, L) == (683, 0)


# Per k, what the factor path hands ``linalg._echelon`` for one command on
# (L_k, L_k): the (count, cells) of the systems, one decompose (Y equals X,
# so it reads X's factors) and one Hom count per pair of the three distinct
# labels, and of the inversions, one for the sum and one per label.
FACTOR_PATH = {8: ((13, 214), (4, 536)), 16: ((13, 806), (4, 2072))}


@pytest.mark.parametrize("k, hom_cells, inverse_cells", [(8, 10880, 512), (16, 174592, 2048)])
@pytest.mark.parametrize("F", [QQ, GF(3)], ids=str)
def test_cli_dimensions_eliminate_the_hom_system_alone(F, k, hom_cells, inverse_cells, monkeypatch):
    # hom_cells and inverse_cells are what the whole-system Hom count of
    # (L_k, L_k) handed the kernel, a ceiling on the factor path's cells in
    # all; the Ext image has 21,888 cells at k = 8 and 349,696 at k = 16
    L = " + ".join(f"F[{1 + i % 3},{i % 3}]" for i in range(k))
    hom, ext = frame_dimensions(*(cli.parse_object(L, F) for _ in "XY"))
    want = {"hom": f"dim Hom = {hom}", "ext": f"dim Ext1 = {ext}",
            "euler": f"dim Hom = {hom}, dim Ext1 = {ext}, euler = {hom - ext}"}
    seen = _count_systems(monkeypatch)
    for command in ("hom", "ext", "euler"):
        seen.update(systems=[], inverse=[], _ext_count=0)
        assert run_command(["--field", _cli_field(F), command, L, L]) == (0, want[command])
        systems, inverse = seen["systems"], seen["inverse"]
        counts = (len(systems), sum(systems)), (len(inverse), sum(inverse))
        assert counts == FACTOR_PATH[k] and seen["_ext_count"] == 0, command
        assert sum(systems) + sum(inverse) < hom_cells + inverse_cells, command


@pytest.mark.parametrize("F", [QQ, GF(3)], ids=str)
def test_cli_parses_each_distinct_object_text_once(F, monkeypatch):
    # L and the same sum spaced otherwise are two texts of one object: the
    # first pair parses once, the second twice, and both print the same
    L = " + ".join(f"F[{1 + i % 3},{i % 3}]" for i in range(8))
    spaced = L.replace(" + ", "  +  ")
    parse, texts = cli.parse_object, []

    def counted(text, field):
        texts.append(text)
        return parse(text, field)

    monkeypatch.setattr(cli, "parse_object", counted)
    for command in ("hom", "ext", "euler"):
        outputs = []
        for pair, parsed in (((L, L), [L]), ((L, spaced), [L, spaced])):
            texts.clear()
            outputs.append(run_command(["--field", _cli_field(F), command, *pair]))
            assert texts == parsed, command
        assert outputs[0] == outputs[1] and outputs[0][0] == 0, command


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
