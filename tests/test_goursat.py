"""The decomposition sweep against rank counts and without Hom solves."""

import random
from collections import Counter

import pytest

from zdinfty import decomp, linalg
from zdinfty.decomp import decompose, is_isomorphism, label_to_object
from zdinfty.decomp import rank_one_label, rank_two_label, wing
from zdinfty.fields import GF, QQ
from zdinfty.lattice import canonicalize
from zdinfty.objects import CObject, direct_sum_many

from oracle_goursat import goursat_counts
from test_integration_fuzz import random_invertible


def conjugated_sum(field, rng, labels):
    """The direct sum of the labels, its lattice moved by a random
    type-diagonal invertible map (an isomorphic, non-block embedding)."""
    X = direct_sum_many([label_to_object(field, l) for l in labels])[0]
    if X.rank == 0:
        return X
    u0 = random_invertible(field, rng, X.p) if X.p else ()
    u1 = random_invertible(field, rng, X.q) if X.q else ()
    gens = []
    for e, dir in X.lattice.generators():
        top = linalg.mat_vec(field, u0, dir[: X.p]) if X.p else ()
        bot = linalg.mat_vec(field, u1, dir[X.p:]) if X.q else ()
        gens.append((e, tuple(top) + tuple(bot)))
    return CObject(field, X.torsion, canonicalize(field, gens, X.p, X.q))


def random_labels(rng, torsion=True):
    labels = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice(["r1", "r2", "r2", "t"] if torsion else ["r1", "r2", "r2"])
        a = rng.randint(-2, 2)
        if kind == "r1":
            labels.append(rank_one_label(rng.randint(0, 1), a))
        elif kind == "r2":
            labels.append(rank_two_label(rng.randint(1, 3), a))
        else:
            labels.append(wing(rng.randint(1, 3), a))
    return labels


@pytest.mark.parametrize("field,seed", [(QQ, 41), (GF(2), 43), (GF(3), 47)])
def test_decompose_matches_goursat_rank_counts(field, seed):
    rng = random.Random(seed)
    for _ in range(30):
        labels = random_labels(rng)
        X = conjugated_sum(field, rng, labels)
        counts = Counter(goursat_counts(X.lattice))
        counts.update(str(wing(n, a)) for n, a in X.torsion.summands)
        assert counts == Counter(map(str, labels))
        dec = decompose(X)
        assert Counter(map(str, dec.factors)) == counts
        assert is_isomorphism(dec.iso, X)


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_decompose_solves_no_hom_space(field, monkeypatch):
    def forbidden(*args):
        raise AssertionError("decompose called hom_space")

    monkeypatch.setattr(decomp, "hom_space", forbidden)
    rng = random.Random(53)
    for _ in range(15):
        labels = random_labels(rng, torsion=False)
        X = conjugated_sum(field, rng, labels)
        assert Counter(map(str, decompose(X).factors)) == Counter(map(str, labels))
