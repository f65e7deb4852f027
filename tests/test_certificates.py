"""Certificates and checks that valid input never trips, forced to fail.

Each check here raises only on maps that do not fit together or when the
code that feeds it is wrong, so the library's own paths never reach it.  A
test feeds it a bad input or patches the step before it to hand over a
wrong result, and pins the error class and message the check raises.
"""

import dataclasses

import pytest

from zdinfty import ar, decomp, window
from zdinfty.ar import almost_split, class_of_sequence, extension_object
from zdinfty.decomp import decompose
from zdinfty.errors import DecompositionFailure, ShapeMismatch, ZdinftyError
from zdinfty.fields import GF, QQ
from zdinfty.homext import ext_space
from zdinfty.objects import direct_sum_many, rank_two, torsion_cyclic

from test_ar import _zero_map

FIELDS = [QQ, GF(2), GF(3)]


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_glued_middle_rejects_a_reconstruction_missing_a_summand(F, monkeypatch):
    # the wing class of T[2, 0] glues torsion, so its middle is swept
    cls = almost_split(torsion_cyclic(F, 2, 0)).seq.cls
    reconstruct = window.reconstruct_parts

    def dropped(*args):
        summands, lat, basis = reconstruct(*args)
        return summands[:-1], lat, basis

    monkeypatch.setattr(window, "reconstruct_parts", dropped)
    with pytest.raises(ZdinftyError, match="^no equivariant isomorphism onto the canonical"):
        extension_object(cls)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_almost_split_rejects_an_ext_space_of_dimension_two(F, monkeypatch):
    monkeypatch.setattr(ar, "ext_space", lambda X, Y: dataclasses.replace(ext_space(X, Y), dim=2))
    message = "^extension space against the twist has dimension 2, expected 1$"
    with pytest.raises(ZdinftyError, match=message):
        almost_split(rank_two(F, 1, 0))


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_class_of_sequence_rejects_maps_through_different_middles(F):
    one = almost_split(torsion_cyclic(F, 2, 0)).seq
    other = almost_split(torsion_cyclic(F, 3, 0)).seq
    with pytest.raises(ShapeMismatch, match="^maps do not share a middle object$"):
        class_of_sequence(one.inject, other.surject)


@pytest.mark.parametrize("F", FIELDS, ids=str)
@pytest.mark.parametrize("right, what", [
    (lambda F: torsion_cyclic(F, 2, 0), "torsion generator"),
    (lambda F: rank_two(F, 1, 0), "lattice generator"),
])
def test_class_of_sequence_rejects_a_surjection_that_misses(F, right, what):
    seq = almost_split(right(F)).seq
    with pytest.raises(ZdinftyError, match=f"^surjection misses a {what}$"):
        class_of_sequence(seq.inject, _zero_map(seq.middle, seq.right))


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_decompose_rejects_pieces_sharing_their_columns(F, monkeypatch):
    X = direct_sum_many([rank_two(F, 2, 0), rank_two(F, 1, 1)])[0]
    pieces = decomp._lattice_pieces

    def shared(L):
        # the last piece keeps its label but takes the first piece's columns
        found = pieces(L)
        return found[:-1] + [(found[-1][0], found[0][1])]

    monkeypatch.setattr(decomp, "_lattice_pieces", shared)
    with pytest.raises(DecompositionFailure, match="^the split columns do not give an"):
        decompose(X)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_reconstruct_parts_rejects_a_chart_that_is_no_isomorphism(F):
    wm = window.WindowModule(F, (0,), (2,), ())
    one, zero = F.one, F.zero
    # a singular chart of the two coordinates, and a chart of two for one
    for chart, p in ((((one, one), (one, one)), 1), (((one, zero), (zero, one)), 0)):
        with pytest.raises(ZdinftyError, match="^window chart is not an isomorphism onto k\\^r$"):
            window.reconstruct_parts(wm, chart, p, 1)
