"""The graded two-branch ring of index m, written out as arithmetic.

The index-m ring sits inside two polynomial branches as the pairs (f, g)
with f congruent to g modulo x^m; it is generated by u = (x, x) and
v = (x^m, 0), and v * v = u^m * v.  The library reads this ring only through
the closed forms of ``zdinfty.singularity``; the tests check its laws here,
and ``oracle_presentation`` and ``tests/test_objects.py`` write the entries of
free presentations as ``Poly``.

``Poly`` stores coefficients ascending; the zero polynomial has an empty
coefficient tuple and degree -1 by convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from zdinfty.errors import ZdinftyError
from zdinfty.fields import FieldSpec, check_same_field


class MixedIndex(ZdinftyError):
    """Ring elements with different singularity indices were combined."""


@dataclass(frozen=True)
class Poly:
    field: FieldSpec
    coeffs: tuple  # ascending, no trailing zeros

    @staticmethod
    def of(field: FieldSpec, coeffs) -> "Poly":
        cs = [field.of_int(c) if isinstance(c, int) else c for c in coeffs]
        while cs and field.is_zero(cs[-1]):
            cs.pop()
        return Poly(field, tuple(cs))

    @staticmethod
    def zero(field: FieldSpec) -> "Poly":
        return Poly(field, ())

    @staticmethod
    def monomial(field: FieldSpec, c, degree: int) -> "Poly":
        if degree < 0:
            raise ZdinftyError("monomial degree must be nonnegative")
        c = field.of_int(c) if isinstance(c, int) else c
        if field.is_zero(c):
            return Poly(field, ())
        return Poly(field, tuple(field.zero for _ in range(degree)) + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_homogeneous(self) -> bool:
        nonzero = [i for i, c in enumerate(self.coeffs) if not self.field.is_zero(c)]
        return len(nonzero) <= 1

    def __add__(self, other: "Poly") -> "Poly":
        check_same_field(self.field, other.field)
        F = self.field
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=F.zero)
        return Poly.of(F, [F.add(a, b) for a, b in pairs])

    def __sub__(self, other: "Poly") -> "Poly":
        check_same_field(self.field, other.field)
        F = self.field
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=F.zero)
        return Poly.of(F, [F.sub(a, b) for a, b in pairs])

    def __mul__(self, other: "Poly") -> "Poly":
        check_same_field(self.field, other.field)
        F = self.field
        if self.is_zero() or other.is_zero():
            return Poly(F, ())
        out = [F.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if F.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                if not F.is_zero(b):
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Poly.of(F, out)

    def truncated(self, k: int) -> "Poly":
        """The polynomial modulo x^k."""
        return Poly.of(self.field, self.coeffs[:k])


@dataclass(frozen=True)
class RmElement:
    """A pair of branch polynomials agreeing to order m at the node."""

    m: int
    f: Poly
    g: Poly

    def __post_init__(self):
        if self.m < 0:
            raise ZdinftyError("singularity index must be nonnegative")
        check_same_field(self.f.field, self.g.field)
        diff = self.f - self.g
        if diff.truncated(self.m).coeffs:
            raise ZdinftyError(
                f"branch polynomials disagree below order {self.m}"
            )

    @property
    def field(self) -> FieldSpec:
        return self.f.field

    def is_homogeneous(self) -> bool:
        if self.f.is_zero() and self.g.is_zero():
            return True
        degs = set()
        for poly in (self.f, self.g):
            if not poly.is_zero():
                if not poly.is_homogeneous():
                    return False
                degs.add(poly.degree)
        return len(degs) <= 1

    def __add__(self, other: "RmElement") -> "RmElement":
        if self.m != other.m:
            raise MixedIndex(f"cannot mix indices {self.m} and {other.m}")
        return RmElement(self.m, self.f + other.f, self.g + other.g)

    def __mul__(self, other: "RmElement") -> "RmElement":
        if self.m != other.m:
            raise MixedIndex(f"cannot mix indices {self.m} and {other.m}")
        return RmElement(self.m, self.f * other.f, self.g * other.g)

    def __pow__(self, k: int) -> "RmElement":
        out = ring_one(self.field, self.m)
        for _ in range(k):
            out = out * self
        return out


def ring_one(field: FieldSpec, m: int) -> RmElement:
    one = Poly.of(field, [1])
    return RmElement(m, one, one)


def ring_u(field: FieldSpec, m: int) -> RmElement:
    """The diagonal generator (x, x)."""
    x = Poly.monomial(field, 1, 1)
    return RmElement(m, x, x)


def ring_v(field: FieldSpec, m: int) -> RmElement:
    """The branch-separating generator (x^m, 0)."""
    return RmElement(m, Poly.monomial(field, 1, m), Poly.zero(field))
