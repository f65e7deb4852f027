"""Objects of the category: torsion plus a typed graded lattice.

Every finitely generated object splits as T + F with T a finite sum of
graded cyclic torsion modules T(n, a) (generator in degree -a, alive for n
degrees) and F a full-rank graded lattice.  The split is stored, not
recomputed.  This module owns the structural functors (degree shift, the
type swap sigma, the twist V = sigma then shift by -1), symbolic injective
resolutions, and the degree data that a window over an object reads: its
slot events and x on its slots.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby

from . import linalg
from .errors import ZdinftyError
from .fields import FieldSpec, check_same_field
from .lattice import (
    GradedLattice,
    shift_lattice,
    sigma_lattice,
)

__all__ = [
    "CObject", "TorsionPart", "InjectiveProfile", "rank_one", "rank_two",
    "torsion_cyclic", "zero_object", "direct_sum_many", "shift", "sigma", "serre_twist",
    "injective_resolution",
]


@dataclass(frozen=True)
class TorsionPart:
    """Multiset of cyclic summands (n, a): degrees -a .. -a+n-1, each 1-dimensional."""

    summands: tuple

    @staticmethod
    def of(summands) -> TorsionPart:
        """The part with these (n, a) summands; TypeError on a non-integer."""
        ss = tuple(sorted((operator.index(n), operator.index(a)) for n, a in summands))
        for n, _ in ss:
            if n < 1:
                raise ZdinftyError(f"torsion summand needs positive length, got {n}")
        return TorsionPart(ss)

    def is_zero(self) -> bool:
        return not self.summands

    def alive(self, i: int, d: int) -> bool:
        n, a = self.summands[i]
        return -a <= d <= -a + n - 1

    @cached_property
    def _runs(self) -> tuple:
        """(cuts, live summands from each cut to the next): built once per part."""
        ss = self.summands
        cuts = sorted({-a for _, a in ss} | {n - a for n, a in ss})
        return cuts, tuple(
            tuple([i for i, (n, a) in enumerate(ss) if -a <= c < n - a]) for c in cuts
        )

    def slots_at(self, d: int) -> tuple:
        cuts, runs = self._runs
        k = bisect_right(cuts, d) - 1
        return runs[k] if k >= 0 else ()

    def dim_at(self, d: int) -> int:
        return len(self.slots_at(d))

    def shifted(self, s: int) -> TorsionPart:
        """Every summand moved by s: the (n, a) order and the lengths stand,
        so the shifted summands need no sort and no check."""
        return TorsionPart(tuple((n, a + s) for n, a in self.summands))


@dataclass(frozen=True)
class CObject:
    """An object T + F: stored torsion summands and an embedded lattice.

    The degree-d piece has the basis: the adapted lattice generators with
    jump <= d, in generator order, then the torsion summands alive at d, in
    summand order.  Generators are sorted by jump, so generator j is slot j
    at every degree from its jump on, and slot positions need no table.
    """

    field: FieldSpec
    torsion: TorsionPart
    lattice: GradedLattice

    def __post_init__(self):
        check_same_field(self.field, self.lattice.field)

    @property
    def p(self) -> int:
        return self.lattice.p

    @property
    def q(self) -> int:
        return self.lattice.q

    @property
    def rank(self) -> int:
        return self.lattice.rank

    def is_zero(self) -> bool:
        return self.torsion.is_zero() and self.rank == 0

    def is_torsion_free(self) -> bool:
        return self.torsion.is_zero()

    def module_dim_at(self, d: int) -> int:
        """k-dimension of the degree-d piece of the underlying graded module."""
        return self.lattice.dim_at(d) + self.torsion.dim_at(d)

    def torsion_slot(self, i: int, d: int) -> int:
        """Position of torsion summand i among the degree-d slots (it must be
        alive at d): the generators with jump <= d come first."""
        return self.lattice.dim_at(d) + self.torsion.slots_at(d).index(i)

    def xpower_slots(self, d_from: int, d_to: int) -> tuple:
        """The (degree-d_to slot, degree-d_from slot) pairs that x^(d_to - d_from),
        for d_to >= d_from, carries one onto the other; it kills every other
        d_from slot.  Generator j is slot j at both degrees once d_from reaches
        its jump, and a torsion summand alive at both degrees moves from its
        d_from slot to its d_to slot.  Both coordinates ascend."""
        n_from, n_to = self.lattice.dim_at(d_from), self.lattice.dim_at(d_to)
        to = {i: n_to + k for k, i in enumerate(self.torsion.slots_at(d_to))}
        return tuple((j, j) for j in range(n_from)) + tuple(
            (to[i], n_from + k)
            for k, i in enumerate(self.torsion.slots_at(d_from))
            if i in to
        )

    def lattice_vector(self, d: int, v) -> tuple:
        """Ambient vector of the lattice coordinates of a degree-d slot vector."""
        n = self.lattice.dim_at(d)
        dirs = tuple(dir for _, dir in self.lattice.generators()[:n])
        return linalg.mm(self.field, (tuple(v[:n]),), dirs, n, self.rank)[0]

    @cached_property
    def _twist(self) -> CObject:
        return shift(sigma(self), -1)


# ---------------------------------------------------------------------------
# constructors


def zero_object(field: FieldSpec) -> CObject:
    return CObject(field, TorsionPart(()), GradedLattice(field, 0, 0, ()))


def rank_one(field: FieldSpec, i: int, a: int) -> CObject:
    """The rank-one object of type i whose lattice jumps at degree -a."""
    if i not in (0, 1):
        raise ZdinftyError(f"type must be 0 or 1, got {i}")
    p, q = (1, 0) if i == 0 else (0, 1)
    lat = GradedLattice(field, p, q, ((-a, ((field.one,),)),))
    return CObject(field, TorsionPart(()), lat)


def rank_two(field: FieldSpec, m: int, a: int) -> CObject:
    """The rank-two object with diagonal direction at -a and conductor m."""
    if m < 1:
        raise ZdinftyError(f"rank-two objects need m >= 1, got {m}")
    one, zero = field.one, field.zero
    steps = ((-a, ((one, one),)), (m - a, ((one, zero), (zero, one))))
    lat = GradedLattice(field, 1, 1, steps)
    return CObject(field, TorsionPart(()), lat)


def torsion_cyclic(field: FieldSpec, n: int, a: int) -> CObject:
    return CObject(field, TorsionPart.of([(n, a)]), GradedLattice(field, 0, 0, ()))


# ---------------------------------------------------------------------------
# structural functors


def shift(X: CObject, s: int) -> CObject:
    """Degree shift: torsion (n, a) to (n, a+s), lattice jumps e to e-s."""
    return CObject(X.field, X.torsion.shifted(s), shift_lattice(X.lattice, s))


def sigma(X: CObject) -> CObject:
    """Swap the two ambient coordinate types; torsion is untouched."""
    return CObject(X.field, X.torsion, sigma_lattice(X.lattice))


def serre_twist(X: CObject) -> CObject:
    """The twist V: sigma followed by shift by -1; acts as the translate on objects.

    V depends only on X, so it is built once per object and kept on it."""
    return X._twist


def serre_untwist(X: CObject) -> CObject:
    """Inverse of the twist: shift by +1 followed by sigma."""
    return sigma(shift(X, 1))


def sum_places(objs):
    """(p, q, places) of the direct sum of a list: the ambient coordinates
    are the type-0 coordinates of every input in order, then their type-1
    coordinates, and an input's place lists, for each of its ambient
    coordinates, the coordinate of the sum it lands on."""
    p = sum(X.p for X in objs)
    places = []
    p_off, q_off = 0, p
    for X in objs:
        places.append(tuple(range(p_off, p_off + X.p)) + tuple(range(q_off, q_off + X.q)))
        p_off, q_off = p_off + X.p, q_off + X.q
    return p, q_off - p, places


def sum_layout(objs):
    """(p, q, torsion, per-input (place, torsion index map)) of the direct
    sum of a nonempty list, without its lattice.

    The places are ``sum_places``'.  The torsion summands are merged by a
    stable sort, so the sum equals folding pairwise sums from the left, and
    an input's torsion map sends each of its torsion summands to the sum's.
    """
    if not objs:
        raise ZdinftyError("empty direct sum needs an explicit field")
    F = objs[0].field
    for X in objs:
        check_same_field(F, X.field)
    p, q, places = sum_places(objs)
    merged = sorted(
        ((s, t, i) for t, X in enumerate(objs) for i, s in enumerate(X.torsion.summands)),
        key=lambda m: m[0],
    )
    tmaps = [{} for _ in objs]
    for new_idx, (_, t, i) in enumerate(merged):
        tmaps[t][i] = new_idx
    torsion = TorsionPart(tuple(s for s, _, _ in merged))
    return p, q, torsion, list(zip(places, tmaps))


def direct_sum_many(objs):
    """Direct sum of a nonempty list; returns (Z, per-input (place, torsion
    index map)), laid out by ``sum_layout``.

    The lattice needs no elimination.  S_d of the sum is the sum of the
    inputs' S_d, which sit on disjoint coordinates, and each input's
    coordinates keep their order.  So the placed reduced-echelon rows of
    all inputs have distinct pivots, each pivot column is zero in every other
    row, and sorted by pivot they are the unique reduced-echelon basis of
    S_d.  Every jump of an input grows S_d, so each jump is a step.
    """
    p, q, torsion, layout = sum_layout(objs)
    F = objs[0].field
    events = sorted(
        ((jump, t, place, basis)
         for t, (X, (place, _)) in enumerate(zip(objs, layout))
         for jump, basis in X.lattice.steps),
        key=lambda ev: ev[0],
    )
    rows = [()] * len(objs)  # each input's placed (pivot, row) pairs so far
    steps = []
    for jump, group in groupby(events, key=lambda ev: ev[0]):
        for _, t, place, basis in group:
            rows[t] = [
                (next(k for k, c in zip(place, row) if c), place_rows(F, p + q, (place, row)))
                for row in basis
            ]
        steps.append((jump, tuple(v for _, v in sorted(chain.from_iterable(rows)))))
    return CObject(F, torsion, GradedLattice(F, p, q, tuple(steps))), layout


def place_rows(F, r, *placed) -> tuple:
    """The vector of k^r holding each (place, row) of ``placed`` at the
    coordinates ``place``; the places must be disjoint."""
    v = [F.zero] * r
    for place, row in placed:
        for k, c in zip(place, row):
            v[k] = c
    return tuple(v)


# ---------------------------------------------------------------------------
# symbolic injectives


@dataclass(frozen=True)
class InjectiveProfile:
    """A finite direct sum of the three kinds of indecomposable injectives.

    ``divisible`` lists cutoffs c, each standing for the x-divisible torsion
    module k[x,x^-1]/x^c k[x] (alive in all degrees below c).
    """

    e0_copies: int
    e1_copies: int
    divisible: tuple

    def is_zero(self) -> bool:
        return self.e0_copies == 0 and self.e1_copies == 0 and not self.divisible


def injective_resolution(X: CObject):
    """Two-step resolution by indecomposable injectives.

    The lattice embeds in its localization, whose cokernel is divisible with
    cutoffs the jump multiset; a torsion summand embeds in its divisible hull
    with cutoff n - a, leaving a hull with cutoff -a.  Returns
    (description, I0, I1).
    """
    lat_jumps = X.lattice.jump_list
    i0 = InjectiveProfile(
        X.p,
        X.q,
        tuple(sorted(n - a for n, a in X.torsion.summands)),
    )
    i1 = InjectiveProfile(
        0,
        0,
        tuple(sorted(list(lat_jumps) + [-a for _, a in X.torsion.summands])),
    )
    desc = (
        "lattice part embeds in its localization; "
        "each torsion generator maps to its divisible hull in the same degree"
    )
    return desc, i0, i1


# ---------------------------------------------------------------------------
# slot events and slot maps


def slot_events(X: CObject) -> set:
    """The degrees d at which the slots of X differ from those at d - 1: its
    lattice jumps and the births -a and deaths n - a of its torsion summands.
    Between two of them x carries each slot to the same slot one degree up."""
    return {j for j, _ in X.lattice.steps}.union(X.torsion._runs[0])


def module_xpower(X: CObject, d_from: int, d_to: int) -> tuple:
    """Multiplication by x^(d_to - d_from), for d_to >= d_from, on the slots
    of X: the 0/1 matrix of ``X.xpower_slots``."""
    return linalg.unit_matrix(
        X.field, X.module_dim_at(d_to), X.module_dim_at(d_from), X.xpower_slots(d_from, d_to)
    )
