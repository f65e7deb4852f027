"""Decomposition as labels and columns: ``decompose`` certifies the sweep's
columns and builds no direct sum and no map; ``iso`` is built on first read.

The column certificate (``decomp.pieces_certified``) must give the verdict
that ``is_isomorphism`` gives on the map assembled from the same pieces
(``decomp.split_isomorphism``), on the sweep's pieces and on seeded
mutations of them.
"""

import random
from collections import Counter

import pytest

from zdinfty import cli, decomp, homext
from zdinfty.ar import almost_split
from zdinfty.cli import parse_object, run_command
from zdinfty.decomp import (
    IndecLabel,
    decompose,
    is_isomorphism,
    pieces_certified,
    split_isomorphism,
)
from zdinfty.fields import GF, QQ
from zdinfty.objects import direct_sum_many, rank_two, zero_object

import oracle_decomp
from test_exact_scalars import _ks_shapes, _window_labels

FIELDS = [QQ, GF(2), GF(3)]


def _cli_field(F) -> str:
    return "Q" if F.kind == "Q" else f"Fp:{F.p}"


def _conjugated_sums(F) -> list:
    rng = random.Random(43)
    return [oracle_decomp.conjugated_sum(F, rng, shape)[0] for shape in _ks_shapes()]


class _Builds:
    """Counts the sums and maps built: everywhere (``total``) and while a
    ``decompose`` call runs (``inside``)."""

    def __init__(self, monkeypatch):
        self.total, self.inside, self.depth = Counter(), Counter(), 0
        for name in ("direct_sum_many", "label_to_object", "morphism_from_parts"):
            monkeypatch.setattr(decomp, name, self._counted(name, getattr(decomp, name)))
        builds = self

        class Counted(homext.Morphism):
            def __init__(self, *args):
                builds._count("Morphism")
                super().__init__(*args)

        monkeypatch.setattr(homext, "Morphism", Counted)
        for mod in (decomp, cli):
            monkeypatch.setattr(mod, "decompose", self._inside(mod.decompose))

    def _count(self, name):
        self.total[name] += 1
        if self.depth:
            self.inside[name] += 1

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            self._count(name)
            return fn(*args, **kwargs)

        return counted

    def _inside(self, fn):
        def wrapped(*args, **kwargs):
            self.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1

        return wrapped


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_decompose_builds_no_sum_and_no_map(F, monkeypatch):
    objs = _conjugated_sums(F)
    objs += [direct_sum_many([rank_two(F, 2, 0)] * k)[0] for k in range(1, 7)]
    objs.append(zero_object(F))
    builds = _Builds(monkeypatch)
    decs = [decomp.decompose(X) for X in objs]
    assert builds.total == Counter(), builds.total
    for label in _window_labels(3, -1, 1, 2):
        almost_split(parse_object(str(label), F))
    field = _cli_field(F)
    for dec in decs[:10]:
        literal = " + ".join(map(str, dec.factors))
        assert run_command(["--field", field, "decompose", literal])[0] == 0
    assert run_command(["--field", field, "ars", "F[2,0]"])[0] == 0
    assert run_command(["--field", field, "ars", "T[2,1]"])[0] == 0
    assert run_command(["--field", field, "selftest"])[0] == 0
    assert builds.inside == Counter(), builds.inside

    for X, dec in zip(objs, decs):
        before = Counter(builds.total)
        iso = dec.iso
        built = builds.total - before
        # the zero object's isomorphism is its identity: one map, no sum
        sums = 1 if dec.factors else 0
        assert built == Counter({
            "direct_sum_many": sums,
            "label_to_object": len(dec.factors),
            "morphism_from_parts": sums,
            "Morphism": 1,
        }), (X, built)
        before = Counter(builds.total)
        assert dec.iso is iso
        assert builds.total == before
        assert is_isomorphism(iso, X)


def _mutants(F, pieces, rng) -> list:
    """One seeded instance of each mutation that applies to the pieces."""
    pieces = list(pieces)
    lattice = [i for i, (label, _) in enumerate(pieces) if label.kind != "wing"]
    wings = [i for i, (label, _) in enumerate(pieces) if label.kind == "wing"]
    bars = [i for i, (label, _) in enumerate(pieces) if label.kind == "rank_two"]
    # (piece, slot) of every u column and of every w column
    cols = {0: [], 1: []}
    for i in lattice:
        label, part = pieces[i]
        if label.kind == "rank_two":
            cols[0].append((i, 0))
            cols[1].append((i, 1))
        else:
            cols[label.params[0]].append((i, 0))

    def put(out, i, slot, col):
        part = list(out[i][1])
        part[slot] = col
        out[i] = (out[i][0], tuple(part))

    mutants = []
    if lattice:
        out = list(pieces)
        i = rng.choice(lattice)
        slot = rng.randrange(len(out[i][1]))
        put(out, i, slot, (F.zero,) * len(out[i][1][slot]))
        mutants.append(("zero a column", out))
    for kind in (0, 1):
        if len(cols[kind]) >= 2:
            out = list(pieces)
            (i, s), (j, t) = rng.sample(cols[kind], 2)
            ci, cj = out[i][1][s], out[j][1][t]
            put(out, i, s, cj)
            put(out, j, t, ci)
            mutants.append((f"swap two type-{kind} columns", out))
            out = list(pieces)
            put(out, i, s, tuple(F.add(x, y) for x, y in zip(ci, cj)))
            mutants.append((f"add a type-{kind} column to another", out))
    if len(bars) >= 2:
        out = list(pieces)
        i, j = rng.sample(bars, 2)
        put(out, i, 1, out[j][1][1])
        mutants.append(("give a bar another bar's w", out))
    out = list(pieces)
    i = rng.randrange(len(out))
    label, part = out[i]
    size, a = label.params
    out[i] = (IndecLabel(label.kind, (size, a + rng.choice((-1, 1)))), part)
    mutants.append(("move a label's a", out))
    if wings:
        out = list(pieces)
        i = rng.choice(wings)
        (n, a), part = out[i][0].params, out[i][1]
        n += rng.choice((-1, 1)) if n > 1 else 1
        out[i] = (IndecLabel("wing", (n, a)), part)
        mutants.append(("change a wing's length", out))
    if len(wings) >= 2:
        out = list(pieces)
        i, j = rng.sample(wings, 2)
        out[i] = (out[i][0], out[j][1])
        mutants.append(("name another wing's summand", out))
    if len(pieces) >= 2:
        out = list(pieces)
        del out[rng.randrange(len(out))]
        mutants.append(("drop a piece", out))
    return mutants


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_column_certificate_matches_is_isomorphism(F):
    objs = _conjugated_sums(F)
    nodes = _window_labels(7, -4, 4, 5)
    assert len(nodes) == 126
    objs += [almost_split(parse_object(str(node), F)).seq.middle for node in nodes]
    rng = random.Random(61)
    verdicts = Counter()
    for X in objs:
        pieces = decompose(X).pieces
        assert pieces_certified(X, pieces)
        assert is_isomorphism(split_isomorphism(X, pieces), X)
        for what, mutant in _mutants(F, pieces, rng):
            verdict = pieces_certified(X, mutant)
            assert verdict == is_isomorphism(split_isomorphism(X, mutant), X), (what, X, mutant)
            verdicts[what, verdict] += 1
    # every mutation is drawn and caught at least once, and adding a column
    # to another of its type (a shear) keeps some isomorphisms
    for what in ("zero a column", "swap two type-0 columns", "swap two type-1 columns",
                 "add a type-0 column to another", "add a type-1 column to another",
                 "give a bar another bar's w", "move a label's a",
                 "change a wing's length", "name another wing's summand", "drop a piece"):
        assert verdicts[what, False] > 0, (what, verdicts)
    for kind in (0, 1):
        assert verdicts[f"add a type-{kind} column to another", True] > 0, verdicts
