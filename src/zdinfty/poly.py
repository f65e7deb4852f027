"""Polynomials in one variable over an exact field.

Coefficients are stored ascending; the zero polynomial has an empty
coefficient tuple and degree -1 by convention.  Only what the graded ring
elements of ``singularity`` need: ring operations, homogeneity and
truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from .errors import ZdinftyError
from .fields import FieldSpec, check_same_field


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

    def __neg__(self) -> "Poly":
        return Poly(self.field, tuple(self.field.neg(c) for c in self.coeffs))

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

    def __str__(self) -> str:
        F = self.field
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if F.is_zero(c):
                continue
            if i == 0:
                parts.append(F.fmt(c))
            elif i == 1:
                parts.append(f"{F.fmt(c)}*x" if c != F.one else "x")
            else:
                parts.append(f"{F.fmt(c)}*x^{i}" if c != F.one else f"x^{i}")
        return " + ".join(parts)
