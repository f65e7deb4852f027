"""Hom and Ext dimensions in the given frame, by one whole-system count.

This is the ``dimensions`` the CLI read before ``decomp.dimensions`` counted
through the factors: no decomposition, one Hom count (``homext._hom_count``)
on the whole pair, and dim Ext as dim Hom less ``euler_form``, since the
category is hereditary.  It is kept here only as the differential for the
factor path.
"""

from zdinfty.fields import check_same_field
from zdinfty.homext import _hom_count, euler_form


def frame_dimensions(X, Y) -> tuple:
    """(dim Hom(X, Y), dim Ext(X, Y)) from the Hom count of the whole pair."""
    check_same_field(X.field, Y.field)
    hom = _hom_count(X, Y)[1]
    return hom, hom - euler_form(X, Y)
