"""Fraction-only rationals: the reference for ints as integral Q scalars.

Over Q, ``FieldSpec`` keeps an integral scalar as a plain ``int`` and
``linalg.rref`` returns an ``int`` wherever its pivot divides an entry.
Before that, every Q scalar was a ``fractions.Fraction``: the constants and
``of_int`` built Fractions, and ``_rational_row`` turned every entry of a
reduced row back into one.  ``fraction_scalars`` puts that op table on the
rational field and that ``_rational_row`` in ``linalg`` for the length of a
``with`` block, so a computation can be run both ways and compared.
"""

import contextlib
import operator
from fractions import Fraction
from unittest import mock

from zdinfty import linalg

FRACTION_OPS = {
    "zero": Fraction(0),
    "one": Fraction(1),
    "of_int": Fraction,
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "neg": operator.neg,
    # the old table bound ``_inv`` to ``1 / a`` and divided as a * inv(b)
    "_div": lambda a, b: a * (1 / b),
}


def rational_row(row, d):
    """A primitive integer row divided by its pivot entry, as Fractions."""
    zero = Fraction(0)
    if d == 1 or d == -1:
        return [Fraction(a * d) if a else zero for a in row]
    return [Fraction(a, d) if a else zero for a in row]


@contextlib.contextmanager
def fraction_scalars(F):
    """Run the rational field ``F`` on Fraction-only scalars inside the block."""
    assert F.p is None
    saved = {name: getattr(F, name) for name in FRACTION_OPS}
    for name, value in FRACTION_OPS.items():
        object.__setattr__(F, name, value)
    try:
        with mock.patch.object(linalg, "_rational_row", rational_row):
            yield F
    finally:
        for name, value in saved.items():
            object.__setattr__(F, name, value)
