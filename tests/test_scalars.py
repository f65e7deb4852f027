"""Field axioms, exact matrix routines, polynomial arithmetic."""

from copy import deepcopy
import pickle

import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from zdinfty import linalg
from zdinfty.cli import parse_object
from zdinfty.errors import FieldMismatch, RangeError, ZdinftyError
from zdinfty.fields import GF, QQ, FieldSpec, check_same_field, parse_field

from oracle_membership import in_span, reduce_against
from oracle_ring import Poly

FIELDS = [QQ, GF(5), GF(2)]


def scalars(field):
    if field is QQ:
        return st.builds(
            Fraction,
            st.integers(min_value=-50, max_value=50),
            st.integers(min_value=1, max_value=13),
        )
    return st.integers(min_value=0, max_value=field.p - 1)


@pytest.mark.parametrize("F", FIELDS)
@given(data=st.data())
def test_field_axioms(F, data):
    a = data.draw(scalars(F))
    b = data.draw(scalars(F))
    c = data.draw(scalars(F))
    assert F.add(a, b) == F.add(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(a, b) == F.mul(b, a)
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == F.zero
    if not F.is_zero(a):
        assert F.mul(a, F.inv(a)) == F.one


def test_field_validation():
    with pytest.raises(ZdinftyError):
        FieldSpec("Fp", 6)
    with pytest.raises(ZdinftyError):
        FieldSpec("R")
    assert parse_field("Q") == QQ
    assert parse_field("Fp:7") == GF(7)
    with pytest.raises(FieldMismatch):
        check_same_field(QQ, GF(5))


def test_prime_moduli():
    # Carmichael numbers and strong pseudoprimes to the smaller base sets,
    # the last one to every prime base up to 37
    for n in (1, 4, 561, 41041, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(ZdinftyError, match="prime modulus"):
            FieldSpec("Fp", n)
    for p in (2, 3, 41, 43, 1000003, 2**61 - 1):
        assert FieldSpec("Fp", p).p == p
    # primality is exact only below the bound of the deterministic bases
    for n in (3317044064679887385961981, 2**89 - 1):
        with pytest.raises(RangeError):
            FieldSpec("Fp", n)


def test_gf_is_one_instance_per_prime():
    # the primality test runs once per prime, and every object over one
    # prime field shares its instance, so check_same_field sees identity
    assert GF(7) is GF(7)
    assert parse_field("Fp:10007") is parse_field("Fp:10007") is GF(10007)
    assert parse_object("F[2,0] + T[1,0]", parse_field("Fp:7")).field is GF(7)
    for _ in range(2):  # a rejected modulus is not kept
        with pytest.raises(ZdinftyError, match="prime modulus"):
            GF(4)
    with pytest.raises(RangeError):
        GF(2**89 - 1)
    copy = pickle.loads(pickle.dumps(GF(7)))
    assert copy == GF(7) and copy.p == 7 and copy.mul(3, 5) == 1
    # pickling and deep copies return the shared instance
    for field in (QQ, GF(7)):
        assert pickle.loads(pickle.dumps(field)) is field
        assert deepcopy(field) is field
    assert deepcopy(parse_object("F[2,0] + T[1,0]", GF(7))).field is GF(7)


def test_rref_and_nullspace():
    F = QQ
    A = ((Fraction(1), Fraction(2), Fraction(3)),
         (Fraction(2), Fraction(4), Fraction(6)),
         (Fraction(0), Fraction(1), Fraction(1)))
    red, pivots = linalg.rref(F, A)
    assert pivots == (0, 1)
    assert linalg.rank(F, A) == 2
    for v in linalg.nullspace(F, A):
        assert not any(linalg.mat_vec(F, A, v))
    assert len(linalg.nullspace(F, A)) == 1


def test_solve_and_inverse():
    F = GF(5)
    A = ((1, 2), (3, 4))
    b = (1, 0)
    x = linalg.solve(F, A, b)
    assert linalg.mat_vec(F, A, x) == b
    Ainv = linalg.inverse(F, A)
    assert linalg.mm(F, A, Ainv, 2, 2) == linalg.identity(F, 2)
    assert linalg.inverse(F, ((1, 2), (2, 4))) is None


def test_reduce_against_is_canonical():
    # the coset representative modulo an echelon basis, by the row-by-row
    # loop and by the one product ``ExtSpace.reduce`` takes: the rows are
    # reduced, so subtracting v's entries at the pivots times them at once
    # is the same as subtracting them one row at a time
    F = QQ
    basis, pivots = linalg.rref(F, ((Fraction(1), Fraction(0), Fraction(2)),
                                    (Fraction(0), Fraction(1), Fraction(1))))
    v = (Fraction(3), Fraction(4), Fraction(11))
    red = reduce_against(F, basis, pivots, v)
    assert red == (Fraction(0), Fraction(0), Fraction(1))
    lift = linalg.mm(F, ([-v[k] for k in pivots],), basis, len(basis), len(v))[0]
    assert linalg.vec_add(F, v, lift) == red
    assert in_span(F, basis, pivots, (Fraction(1), Fraction(1), Fraction(3)))


@pytest.mark.parametrize("F", [QQ, GF(5)])
def test_poly_ring(F):
    x = Poly.monomial(F, 1, 1)
    p = Poly.of(F, [1, 2, 1])
    q = Poly.of(F, [1, 1])
    assert q * q == p
    assert (p - q * q).is_zero()
    assert Poly.monomial(F, 3, 4).is_homogeneous()
    assert not (p + x).is_homogeneous()
