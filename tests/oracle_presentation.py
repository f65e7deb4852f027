"""Reference construction of objects from free graded presentations.

An independent way to build canonical objects: generators in given
degrees, homogeneous relations between them, and a localization chart
that sends generator classes to typed ambient coordinates.  Each degree of
the window [lo, hi] is the span of the generators born by then modulo the
relations alive there (``quotient_model``); the canonical torsion and
lattice are read off that contiguous window by ``window.reconstruct_parts``
(``from_window``).  ``tests/test_objects.py`` compares the result with the
library's constructors and ``direct_sum_many``.
"""

from dataclasses import dataclass

from zdinfty import linalg, window
from zdinfty.errors import DimensionMismatch, NotFullRank, ZdinftyError
from zdinfty.fields import FieldSpec
from zdinfty.objects import CObject, TorsionPart, zero_object

from oracle_membership import reduce_against
from oracle_ring import Poly


class InconsistentTypes(ZdinftyError):
    """Localization data of a presentation does not respect its relations."""


def from_window(wm: window.WindowModule, chart, p: int, q: int) -> CObject:
    summands, lat, _ = window.reconstruct_parts(wm, chart, p, q)
    return CObject(wm.field, TorsionPart(summands), lat)


def quotient_model(field: FieldSpec, lo: int, hi: int, ambient_dims, relation_rows):
    """Window model of (coordinate spaces modulo relation subspaces).

    ``ambient_dims[d]`` is the number of coordinate slots at degree d, where
    slot i at degree d maps to slot i at degree d+1 when both exist (slots are
    aligned by index; extra slots at d+1 are new).  ``relation_rows[d]`` is a
    list of vectors spanning the subspace to quotient by.  Returns the window
    module together with, per degree, the chosen coset-representative slots.
    """
    reps = {}
    bases = {}
    for d in range(lo, hi + 1):
        rel, pivots = linalg.rref(field, relation_rows.get(d, ()))
        pivset = set(pivots)
        free = tuple(j for j in range(ambient_dims.get(d, 0)) if j not in pivset)
        reps[d] = free
        bases[d] = (rel, pivots)

    def project(d, vec):
        rel, pivots = bases[d]
        red = reduce_against(field, rel, pivots, vec)
        return tuple(red[j] for j in reps[d])

    dims = tuple(len(reps[d]) for d in range(lo, hi + 1))
    xmaps = []
    for d in range(lo, hi):
        cols = []
        na = ambient_dims.get(d + 1, 0)
        for j in reps[d]:
            vec = [field.zero] * na
            if j < na:
                vec[j] = field.one
            cols.append(project(d + 1, tuple(vec)))
        xmaps.append(linalg.transpose(cols))
    return window.WindowModule(field, tuple(range(lo, hi + 1)), dims, tuple(xmaps)), reps


def _coeff(e: Poly, d: int):
    """The coefficient of x^d in e."""
    return e.coeffs[d] if 0 <= d < len(e.coeffs) else e.field.zero


@dataclass(frozen=True)
class Presentation:
    """Free graded presentation: generators (rows) and relations (columns).

    entry(i, j) is homogeneous of degree col_degrees[j] - row_degrees[i];
    ``loc_iso`` is a constant r x rows matrix sending generator classes to
    ambient coordinates after inverting x, and ``type_marks`` assigns each of
    the r localized coordinates its type.
    """

    field: FieldSpec
    row_degrees: tuple
    col_degrees: tuple
    entries: tuple  # rows x cols of Poly
    type_marks: tuple
    loc_iso: tuple

    def __post_init__(self):
        for i, row in enumerate(self.entries):
            if len(row) != len(self.col_degrees):
                raise DimensionMismatch("presentation row of wrong length")
            for j, e in enumerate(row):
                want = self.col_degrees[j] - self.row_degrees[i]
                if e.is_zero():
                    continue
                if not e.is_homogeneous() or e.degree != want:
                    raise ZdinftyError(
                        f"entry ({i},{j}) must be homogeneous of degree {want}"
                    )
        if len(self.entries) != len(self.row_degrees):
            raise DimensionMismatch("presentation needs one row per generator")

    def scalar_relations(self):
        """Constant coefficients alpha[i][j] of the homogeneous entries."""
        return tuple(
            tuple(
                _coeff(e, self.col_degrees[j] - self.row_degrees[i])
                for j, e in enumerate(row)
            )
            for i, row in enumerate(self.entries)
        )


def presentation_of_polys(field, row_degrees, col_degrees, entry_polys, type_marks, loc_iso):
    entries = tuple(
        tuple(
            e if isinstance(e, Poly) else Poly.of(field, e)
            for e in row
        )
        for row in entry_polys
    )
    return Presentation(
        field,
        tuple(row_degrees),
        tuple(col_degrees),
        entries,
        tuple(type_marks),
        tuple(tuple(r) for r in loc_iso),
    )


def from_presentation(P: Presentation) -> CObject:
    """Canonical object presented by generators and homogeneous relations.

    The torsion summands are the elementary divisors of the cokernel; the
    lattice is its image in the localization, with types from ``type_marks``.
    Raises InconsistentTypes when ``loc_iso`` does not kill the relations and
    NotFullRank when the localized rank differs from len(type_marks).
    """
    F = P.field
    nrows = len(P.row_degrees)
    r = len(P.type_marks)
    alpha = P.scalar_relations()

    for row in P.loc_iso:
        if len(row) != nrows:
            raise DimensionMismatch("loc_iso must have one column per generator")
    if len(P.loc_iso) != r:
        raise DimensionMismatch("loc_iso must have one row per localized coordinate")

    # loc_iso must factor through the localized cokernel.
    prod = linalg.mm(F, P.loc_iso, alpha, nrows, len(P.col_degrees))
    for row in prod:
        for c in row:
            if not F.is_zero(c):
                raise InconsistentTypes("loc_iso does not vanish on the relations")
    rel_rank = linalg.rank(F, linalg.transpose(alpha)) if P.col_degrees else 0
    if nrows - rel_rank != r or linalg.rank(F, P.loc_iso) != r:
        raise NotFullRank(
            f"localized rank is {nrows - rel_rank}, expected {r}"
        )

    # Normalize coordinates: type-0 rows of loc_iso first.
    order = sorted(range(r), key=lambda i: (P.type_marks[i], i))
    loc = tuple(P.loc_iso[i] for i in order)
    p = sum(1 for t in P.type_marks if t == 0)
    q = r - p

    if nrows == 0:
        return zero_object(F)
    lo = min(P.row_degrees)
    hi = max(list(P.row_degrees) + list(P.col_degrees)) + 1

    ambient_dims = {}
    relation_rows = {}
    for d in range(lo, hi + 1):
        ambient_dims[d] = nrows
        rows = []
        # slots of dead generators (degree below the generator) are relations
        for i, rd in enumerate(P.row_degrees):
            if d < rd:
                vec = [F.zero] * nrows
                vec[i] = F.one
                rows.append(tuple(vec))
        for j, cd in enumerate(P.col_degrees):
            if d >= cd:
                rows.append(tuple(alpha[i][j] for i in range(nrows)))
        relation_rows[d] = rows

    wm, reps = quotient_model(F, lo, hi, ambient_dims, relation_rows)
    # chart: basis slot i of the top degree maps to loc_iso column i
    chart_cols = []
    for i in reps[hi]:
        chart_cols.append(tuple(loc[t][i] for t in range(r)))
    chart = linalg.transpose(chart_cols) if chart_cols else ()
    return from_window(wm, chart, p, q)
