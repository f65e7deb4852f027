"""Integral Q scalars as ints, against the Fraction-only reference.

Over Q an integral scalar is a plain ``int`` and only a non-integral one is
a ``Fraction``.  Each computation below runs twice over Q: as the package
runs it, and inside ``oracle_fields.fraction_scalars``, where every scalar
is a Fraction as before; each run builds its own inputs.  The results must
be equal by value and must print alike, and no scalar in either may be a
float or a bool.
"""

import dataclasses
import itertools
import json
import numbers
import random
from fractions import Fraction

import pytest

from oracle_fields import fraction_scalars
from zdinfty import linalg
from zdinfty.ar import almost_split
from zdinfty.cli import parse_object, run_command
from zdinfty.decomp import decompose, label_to_object, rank_one_label, rank_two_label, wing
from zdinfty.fields import GF, QQ, FieldSpec
from zdinfty.homext import ext_space, hom_space, serre_check
from zdinfty.lattice import canonicalize
from zdinfty.objects import CObject, direct_sum_many, rank_one, rank_two, serre_twist, torsion_cyclic

from test_acceptance import catalog

LADDER = (8, 16, 24, 32)


def _printed(value, memo, among_scalars=False):
    """``value`` with every number in it replaced by its printed form.

    Asserts on the way that every number is an int or a Fraction, and that
    a bool only ever stands as a flag of a result, never among scalars.
    """
    if isinstance(value, FieldSpec):
        return str(value)
    if dataclasses.is_dataclass(value):
        key = id(value)
        if key not in memo:
            memo[key] = (value, (type(value).__name__,) + tuple(
                _printed(getattr(value, f.name), memo) for f in dataclasses.fields(value)
            ))
        return memo[key][1]
    if isinstance(value, (tuple, list)):
        return tuple(_printed(v, memo, True) for v in value)
    if isinstance(value, dict):
        return tuple((_printed(k, memo, True), _printed(v, memo, True)) for k, v in value.items())
    if isinstance(value, bool):
        assert not among_scalars, "a bool among scalars"
        return value
    if isinstance(value, numbers.Number):
        assert type(value) in (int, Fraction), f"{value!r} is a {type(value).__name__}"
        return str(value)
    return value


def _assert_same(compute):
    """``compute(QQ)`` with int scalars equals it with Fraction-only ones."""
    got = compute(QQ)
    with fraction_scalars(QQ):
        want = compute(QQ)
    assert got == want
    assert _printed(got, {}) == _printed(want, {})


def test_reference_runs_on_fractions():
    rows = ((2, 4, 6), (1, 3, 5))
    got = linalg.rref(QQ, rows)[0]
    with fraction_scalars(QQ):
        want = linalg.rref(QQ, [tuple(map(QQ.of_int, r)) for r in rows])[0]
        assert type(QQ.one) is Fraction
    assert got == want == ((1, 0, -1), (0, 1, 2))
    assert {type(x) for row in got for x in row} == {int}
    assert {type(x) for row in want for x in row} == {Fraction}
    assert type(QQ.one) is int


def test_parse_scalar_gives_int_when_integral():
    for text, value in (("4/2", 2), ("-3/1", -3), ("7", 7), ("0/5", 0)):
        x = QQ.parse_scalar(text)
        assert type(x) is int and x == value
    half = QQ.parse_scalar("1/2")
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert type(QQ.parse_scalar("6/-4")) is Fraction
    assert QQ.inv(-1) == -1 and type(QQ.inv(Fraction(1, 3))) is int
    assert GF(7).parse_scalar("4/2") == 2


def test_serre_catalog_matches_fraction_scalars():
    def compute(F):
        objs = catalog(F)
        reports = [serre_check(X, Y) for X, Y in itertools.product(objs, repeat=2)]
        assert len(reports) == 4900
        return reports, run_command(["--field", "Q", "serre", "--catalog", "m<=4,n<=4,|a|<=3"])

    _assert_same(compute)


def _window_labels(m_max, a_min, a_max, n_max):
    out = []
    for a in range(a_min, a_max + 1):
        out += [rank_one_label(0, a), rank_one_label(1, a)]
        out += [rank_two_label(m, a) for m in range(1, m_max + 1)]
        out += [wing(n, a) for n in range(1, n_max + 1)]
    return out


def test_almost_split_sequences_match_fraction_scalars():
    # the nodes a quiver window m <= 6, -3 <= a <= 3, n <= 4 walks, one step
    # wider each way, and the T/F length ladder
    nodes = [str(l) for l in _window_labels(7, -4, 4, 5)]
    assert len(nodes) == 126
    nodes += [f"{kind}[{n},0]" for n in LADDER for kind in ("T", "F")]

    def compute(F):
        out = []
        for node in nodes:
            # equality of the sequences leaves the maps out: they are built
            # from the class on first read of ``seq``
            mesh = almost_split(parse_object(node, F))
            out += [mesh, mesh.seq]
            for fmt in ("text", "json"):
                out.append(run_command(["--field", "Q", "--format", fmt, "ars", node]))
        out.append(run_command(
            ["--field", "Q", "--format", "json", "quiver",
             "--m-max", "6", "--a-min", "-3", "--a-max", "3", "--n-max", "4"]
        ))
        return out

    _assert_same(compute)


def _ks_shapes():
    """(rank-two, torsion, rank-one) counts: 1-6 summands, lattice rank <= 5."""
    return [
        (r2, t, k - r2 - t)
        for k in range(1, 7)
        for r2 in range(k + 1)
        for t in range(k - r2 + 1)
        if 2 * r2 + (k - r2 - t) <= 5
    ]


def _random_invertible(F, rng, n):
    while True:
        M = tuple(tuple(F.of_int(rng.randint(-2, 2)) for _ in range(n)) for _ in range(n))
        if linalg.inverse(F, M) is not None:
            return M


def _conjugated_sum(F, rng, shape):
    """A sum of the given shape, its lattice conjugated by random
    type-diagonal invertible matrices with entries in [-2, 2]."""
    r2, t, r1 = shape
    parts = [rank_two(F, rng.randint(1, 3), rng.randint(-2, 2)) for _ in range(r2)]
    parts += [torsion_cyclic(F, rng.randint(1, 3), rng.randint(-2, 2)) for _ in range(t)]
    parts += [rank_one(F, rng.randint(0, 1), rng.randint(-2, 2)) for _ in range(r1)]
    X = direct_sum_many(parts)[0]
    if not X.rank:
        return X
    u0 = _random_invertible(F, rng, X.p) if X.p else ()
    u1 = _random_invertible(F, rng, X.q) if X.q else ()
    gens = [
        (e, linalg.mat_vec(F, u0, d[: X.p]) + linalg.mat_vec(F, u1, d[X.p:]))
        for e, d in X.lattice.generators()
    ]
    return CObject(F, X.torsion, canonicalize(F, gens, X.p, X.q))


def _json_literal(X):
    """``X`` as a CLI JSON literal, each coordinate a string n or n/d."""
    return json.dumps({
        "torsion": [list(s) for s in X.torsion.summands],
        "lattice": {
            "p": X.p, "q": X.q,
            "gens": [{"jump": e, "dir": [str(c) for c in d]} for e, d in X.lattice.generators()],
        },
    })


def test_decompositions_match_fraction_scalars():
    def compute(F):
        rng = random.Random(71)
        sums = [_conjugated_sum(F, rng, shape) for shape in _ks_shapes()]
        sums += [direct_sum_many([rank_two(F, 2, 0)] * k)[0] for k in range(2, 7)]
        out = []
        for X in sums:
            out.append(decompose(X))
            for fmt in ("text", "json"):
                out.append(run_command(["--field", "Q", "--format", fmt, "decompose", _json_literal(X)]))
        return out

    _assert_same(compute)


def _mixed_sum(rng):
    """1-3 lattice and 1-3 torsion summands, as CLI text."""
    atoms = []
    for _ in range(rng.randint(1, 3)):
        a = rng.randint(-2, 2)
        atoms.append(f"F[{rng.randint(1, 3)},{a}]" if rng.random() < 0.6 else f"F{rng.randint(0, 1)}[{a}]")
    atoms += [f"T[{rng.randint(1, 4)},{rng.randint(-2, 2)}]" for _ in range(rng.randint(1, 3))]
    return " + ".join(atoms)


def test_hom_and_ext_bases_match_fraction_scalars():
    rng = random.Random(73)
    texts = [_mixed_sum(rng) for _ in range(20)]
    pairs = [(a, rng.choice(texts)) for a in texts]

    def compute(F):
        out = []
        for a, b in pairs:
            X, Y = parse_object(a, F), parse_object(b, F)
            for S, T in ((X, Y), (X, serre_twist(X)), (serre_twist(Y), X)):
                out.append((hom_space(S, T).basis, ext_space(S, T).basis))
            out.append(run_command(["--field", "Q", "euler", a, b]))
        return out

    _assert_same(compute)


@pytest.mark.parametrize("F", [QQ, GF(2)], ids=str)
def test_label_objects_hold_no_float_or_bool(F):
    memo = {}
    for label in _window_labels(3, -2, 2, 3):
        X = label_to_object(F, label)
        _printed((X, hom_space(X, X), ext_space(X, serre_twist(X))), memo)
