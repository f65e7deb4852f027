"""Hom as counts and positions: dimension-only callers build no map, and the
basis built on first read is the eager construction in ``oracle_hom``."""

import dataclasses
import itertools
import random

import pytest

from zdinfty import ar, homext
from zdinfty.ar import almost_split
from zdinfty.cli import parse_object, run_command
from zdinfty.errors import NotIndecomposable, ShapeMismatch
from zdinfty.fields import GF, QQ
from zdinfty.homext import euler_form, ext_space, hom_space, serre_check, serre_gram
from zdinfty.objects import direct_sum_many, rank_two, serre_twist, torsion_cyclic

from oracle_hom import eager_hom_basis
from test_acceptance import catalog
from test_ext_closed_form import _sums

FIELDS = [QQ, GF(2), GF(3)]


def _cli_field(F) -> str:
    return "Q" if F.kind == "Q" else f"Fp:{F.p}"


def _count_morphisms(monkeypatch) -> list:
    """Record the arguments of every Morphism that ``homext`` builds."""
    built = []

    class Counted(homext.Morphism):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(homext, "Morphism", Counted)
    return built


def _torsion_heavy_and_mixed(F) -> list:
    """20 torsion-heavy sums (2-8 torsion summands, at most one lattice
    summand) and 20 mixed sums (1-3 lattice and 1-3 torsion summands)."""
    sums = _sums(F)
    assert len(sums) == 60
    return sums[20:]


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_dimension_callers_build_no_morphism(F, monkeypatch):
    sums = _torsion_heavy_and_mixed(F)
    rng = random.Random(71)
    pairs = [(X, rng.choice(sums)) for X in sums]
    want = [len(eager_hom_basis(X, Y)) for X, Y in pairs]
    built = _count_morphisms(monkeypatch)
    objs = catalog(F)
    for X, Y in itertools.product(objs, repeat=2):
        assert serre_check(X, Y).passed, (X, Y)
    lattices = [X for X in objs if X.is_torsion_free()]
    for X, Y in itertools.product(lattices[::3], repeat=2):
        assert len(serre_gram(X, Y)) == serre_check(X, Y).dim_hom, (X, Y)
        assert len(serre_gram(X, Y, flipped=True)) == ext_space(X, Y).dim, (X, Y)
    for (X, Y), d in zip(pairs, want):
        assert hom_space(X, Y).dim == d, (X, Y)
        assert euler_form(X, Y) == d - ext_space(X, Y).dim, (X, Y)
        assert serre_check(X, Y).passed, (X, Y)
    # the indecomposability check of almost_split counts Hom(X, X)
    with pytest.raises(NotIndecomposable):
        almost_split(direct_sum_many([rank_two(F, 1, 0), torsion_cyclic(F, 2, 0)])[0])

    class Checked(Exception):
        pass

    def stop(*args):
        raise Checked

    with monkeypatch.context() as m:
        m.setattr(ar, "ext_space", stop)
        for X in (rank_two(F, 2, 0), torsion_cyclic(F, 3, 1)):
            with pytest.raises(Checked):
                almost_split(X)
    A = "F[2,0] + T[3,1] + T[2,0] + F0[1]"
    B = "T[3,0] + T[1,0] + F[1,-1] + F1[2]"
    assert run_command(["--field", _cli_field(F), "hom", A, B]) == (0, "dim Hom = 5")
    code, out = run_command(["--field", _cli_field(F), "euler", A, B])
    assert code == 0 and out.startswith("dim Hom = 5, ")
    assert built == []
    # reading the basis builds one map per basis element, once
    for X in sums[20:25]:
        space = hom_space(X, X)
        assert built == []
        basis = space.basis
        assert len(built) == len(basis) == space.dim > 0
        assert space.basis is basis and len(built) == space.dim
        del built[:]


def _assert_lazy_matches_eager(X, Y):
    space = hom_space(X, Y)
    want = eager_hom_basis(X, Y)
    assert space.dim == len(want), (X, Y)
    assert space.basis == want, (X, Y)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_basis_matches_eager_construction_on_catalog(F):
    objs = catalog(F)
    assert len(objs) ** 2 == 4900
    for X, Y in itertools.product(objs, repeat=2):
        _assert_lazy_matches_eager(X, Y)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_basis_matches_eager_construction_on_sums(F):
    sums = _torsion_heavy_and_mixed(F)
    rng = random.Random(73)
    both = 0
    for X in sums:
        for Y in (rng.choice(sums), X, serre_twist(X)):
            _assert_lazy_matches_eager(X, Y)
            space = hom_space(X, Y)
            both += bool(space.torsion_pairs) and sum(space.ft_widths) > 0
    # the catalog never has torsion maps and generator images in one space
    assert both >= 10


def _layout_from_objects(space):
    """The block widths and dimension read off the two objects, as ``ExtSpace``
    did on every call before ``ext_space`` fixed them."""
    X, Y = space.src, space.dst
    widths = (Y.q * X.p + Y.p * X.q,) + tuple(
        Y.module_dim_at(n - a) for n, a in X.torsion.summands
    )
    pivots = (space.ff_reduction[1],) + space.tor_reduction
    return widths, sum(w - len(hit) for w, hit in zip(widths, pivots))


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_ext_widths_and_dim_fixed_at_construction(F):
    objs = catalog(F, m_max=2, n_max=3, a_bound=2)
    pairs = list(itertools.product(objs, repeat=2))
    sums = _sums(F)
    rng = random.Random(79)
    pairs += [(X, rng.choice(sums)) for X in sums] + [(X, serre_twist(X)) for X in sums]
    for X, Y in pairs:
        space = ext_space(X, Y)
        assert (space.widths, space.dim) == _layout_from_objects(space), (X, Y)
        assert len(space.basis) == space.dim, (X, Y)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_ext_class_of_the_wrong_shape_is_refused(F):
    X = parse_object("T[2,0] + T[1,1]", F)
    Y = parse_object("T[3,1] + F[1,0]", F)
    space = ext_space(X, Y)
    c = space.basis[0]
    assert space.coordinates(c) == (F.one,) + (F.zero,) * (space.dim - 1)
    bad = [
        dataclasses.replace(c, tor=c.tor[:-1]),  # a torsion block missing
        dataclasses.replace(c, tor=c.tor + (c.tor[-1],)),  # one too many
        dataclasses.replace(c, tor=(c.tor[0] + (F.zero,),) + c.tor[1:]),  # too wide
        dataclasses.replace(c, h01=((F.zero,),)),  # an off-diagonal entry too many
    ]
    # an off-diagonal entry moved from h10 to h01: the flattened length holds
    X = parse_object("F[2,0] + T[2,0]", F)
    Y = parse_object("F[2,-1] + T[3,1]", F)
    lattice = ext_space(X, Y)
    c = lattice.basis[0]
    assert c.h10 == ((F.one,),) and lattice.coordinates(c) == (F.one, F.zero)
    bad.append(dataclasses.replace(c, h01=((F.zero, F.one),), h10=((),)))
    for b in bad:
        target = lattice if b.src == X else space
        with pytest.raises(ShapeMismatch):
            target.coordinates(b)
        with pytest.raises(ShapeMismatch):
            target.reduce(b.h01, b.h10, b.tor)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_morphism_of_the_wrong_shape_is_refused(F):
    Y = parse_object("T[3,1] + F[1,0]", F)
    space = hom_space(Y, Y)
    m = space.basis[0]
    assert space.coordinates(m) == (F.one,) + (F.zero,) * (space.dim - 1)
    zero = (F.zero,)
    bad = [
        dataclasses.replace(m, tt=m.tt + (zero,)),  # a torsion row too many
        dataclasses.replace(m, ft=m.ft[:-1] + (m.ft[-1] + zero,)),  # a slot too many
        dataclasses.replace(m, tt=((),)),  # a torsion entry missing
        dataclasses.replace(m, ft=m.ft[:-1]),  # a generator image missing
        # a torsion entry moved into a generator image: the length holds
        dataclasses.replace(m, tt=((),), ft=m.ft[:-1] + (m.ft[-1] + zero,)),
    ]
    for b in bad:
        with pytest.raises(ShapeMismatch):
            space.coordinates(b)
