"""Exact scalar arithmetic over the rationals or a prime field.

Over a prime field a scalar is a plain ``int`` in ``[0, p)``.  Over the
rationals it is an exact rational: an ``int`` when it is integral as
produced (the constants, ``of_int``, ``parse_scalar``, ``div``/``inv`` and
every row ``linalg.rref`` returns), and a :class:`fractions.Fraction`
otherwise; a sum or product of Fractions may stay a Fraction of
denominator 1.  Scalars compare and hash by value (``Fraction(2, 1) == 2``),
so which of the two types holds an integral value never changes a result.
All arithmetic goes through a :class:`FieldSpec`, which also guards against
mixing fields.  No floating point is used anywhere.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Union

from .errors import FieldMismatch, ParseError, RangeError, ZdinftyError

__all__ = ["QQ", "GF", "FieldSpec", "parse_field"]

Scalar = Union[int, Fraction]  # an int, or over Q a Fraction; never a float

RATIONALS = "Q"
PRIME_FIELD = "Fp"


def _rational_div(a: Scalar, b: Scalar) -> Scalar:
    """a / b over Q: an int when the quotient is integral."""
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


_RATIONAL_OPS = {
    "zero": 0,
    "one": 1,
    "of_int": operator.index,
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "neg": operator.neg,
    "_div": _rational_div,
}


def _prime_ops(p: int) -> dict:
    return {
        "zero": 0,
        "one": 1,
        "of_int": lambda n: n % p,
        "add": lambda a, b: (a + b) % p,
        "sub": lambda a, b: (a - b) % p,
        "mul": lambda a, b: a * b % p,
        "neg": lambda a: -a % p,
        "_div": lambda a, b: a * pow(b, p - 2, p) % p,
    }


# Miller-Rabin with the first 13 primes as bases is exact below this bound;
# with bases up to 37 only, 318665857834031151167461 would pass as prime.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; RangeError at or above ``_MR_LIMIT``."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        raise RangeError(f"modulus {n} is too large to test; it must be below {_MR_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The base field k: rationals, or integers modulo a prime."""

    kind: str = RATIONALS
    p: int | None = None

    def __post_init__(self):
        if self.kind == RATIONALS:
            if self.p is not None:
                raise ZdinftyError("rationals carry no characteristic parameter")
            ops = _RATIONAL_OPS
        elif self.kind == PRIME_FIELD:
            if self.p is None or not _is_prime(self.p):
                raise ZdinftyError(f"prime field needs a prime modulus, got {self.p}")
            ops = _prime_ops(self.p)
        else:
            raise ZdinftyError(f"unknown field kind {self.kind!r}")
        for name, value in ops.items():
            object.__setattr__(self, name, value)

    def __reduce__(self):
        """Pickle and deep-copy to the shared instance, QQ or GF(p), so the
        copy passes ``check_same_field`` by identity and skips Miller-Rabin."""
        return (GF, (self.p,)) if self.kind == PRIME_FIELD else (parse_field, (RATIONALS,))

    # The constants ``zero``/``one`` and the operations ``of_int``, ``add``,
    # ``sub``, ``mul``, ``neg`` and ``_div`` are bound on each instance above,
    # once per field, so no scalar operation branches on the kind of field.
    # Over Q, ``of_int`` is ``operator.index``: it takes ints only, so a
    # float can never become a scalar.

    def of_fraction(self, num: int, den: int) -> Scalar:
        d = self.of_int(den)
        if self.is_zero(d):
            raise RangeError(f"denominator {den} is zero in {self}")
        return self.div(self.of_int(num), d)

    def inv(self, a: Scalar) -> Scalar:
        return self.div(self.one, a)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        if self.is_zero(b):
            raise ZeroDivisionError("field division by zero")
        return self._div(a, b)

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    # -- parsing -------------------------------------------------------

    def parse_scalar(self, text: str) -> Scalar:
        """An integer or a fraction n/d; ParseError on anything else."""
        num, slash, den = text.strip().partition("/")
        try:
            n = int(num)
            return self.of_fraction(n, int(den)) if slash else self.of_int(n)
        except ValueError:
            raise ParseError(f"expected an integer or a fraction n/d, got {text!r}", 0)

    def __str__(self) -> str:
        return "Q" if self.kind == RATIONALS else f"F{self.p}"


QQ = FieldSpec()


@cache
def GF(p: int) -> FieldSpec:
    """The prime field F_p, one instance per prime: Miller-Rabin runs once,
    and objects built over it pass ``check_same_field`` by identity.  A
    modulus that is not a prime raises and is not kept."""
    return FieldSpec(PRIME_FIELD, p)


def check_same_field(a: FieldSpec, b: FieldSpec) -> None:
    """Mixed-field operations are errors, never coercions.

    Identity is tested first: the generated ``__eq__`` builds two tuples."""
    if a is not b and a != b:
        raise FieldMismatch(f"cannot mix {a} and {b}")


def parse_field(text: str) -> FieldSpec:
    """Parse a field name: ``Q`` or ``Fp:<prime>``."""
    if text == "Q":
        return QQ
    if text.startswith("Fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise ParseError(f"expected a prime after 'Fp:' in {text!r}", 3)
        return GF(p)
    raise ZdinftyError(f"unknown field {text!r}; expected Q or Fp:<p>")
