"""The three benchmark workloads: their ops, inputs and correctness checks.

An op is one call into zdinfty's public functions.  Every op looks the
function up on the live module when it runs, so the tracer's wrappers are
seen.  ``BUILDERS[name](zd, seed)`` returns a ``Workload``; the seed decides
the order of the ops and nothing else.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable

import oracle

SERRE_PRIME = 10007
KS_PRIMES = (5, 10007)  # root enumeration in decomp runs only for p <= 1009
AR_PRIME = 10007
QUIVER_BOUNDS = (6, -3, 3, 4)  # m_max, a_min, a_max, n_max
LADDER = (8, 16, 24, 32)
KS_COPIES = {"Q": 4, 5: 2, 10007: 2}  # shape-schedule repeats per field
# Random sums stop at lattice rank 5, which keeps a pass near four seconds;
# the isotypic powers F[2,0]^k reach rank 12.
KS_MAX_RANK = 5
# The random sums are drawn once, from this seed, not from the run's seed:
# over Q one draw in a few hundred takes 50-100 times the median (decompose
# meets a polynomial with huge coefficients), so inputs that changed with
# the run's seed would decide a run's Q throughput by whether it drew one.
KS_INPUT_SEED = 1


@dataclass
class Op:
    field: str  # "Q" or "Fp"
    desc: str  # the input, printed when the op fails
    call: Callable  # () -> result
    check: Callable  # (result, expected) -> (ok, canonical output text)
    expected: object


@dataclass
class Workload:
    name: str
    ops: list
    primes: tuple
    input_digest: str
    info: dict = field(default_factory=dict)


def digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(str(p).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _field_tag(F) -> str:
    return "Q" if F.kind == "Q" else "Fp"


# ---------------------------------------------------------------------------
# serre-sweep: serre_check on every ordered pair of the acceptance catalog


def _catalog(zd, F):
    objs = []
    for label in oracle.window_labels(4, -3, 3, 4):
        kind = label[0]
        if kind in ("F0", "F1"):
            objs.append((label, zd.rank_one(F, int(kind[1]), label[1])))
        elif kind == "F":
            objs.append((label, zd.rank_two(F, label[1], label[2])))
        else:
            objs.append((label, zd.torsion_cyclic(F, label[1], label[2])))
    return objs


def check_serre(r, expected):
    ok = r.dims_match == expected[0] and r.gram_nondegenerate == expected[1]
    return ok, f"{r.dim_hom} {r.dim_ext_twisted} {r.gram_rank}"


def build_serre(zd, seed):
    ops = []
    for F in (zd.QQ, zd.GF(SERRE_PRIME)):
        for (lx, X), (ly, Y) in itertools.product(_catalog(zd, F), repeat=2):
            torsion_free = X.is_torsion_free() and Y.is_torsion_free()
            ops.append(Op(
                _field_tag(F),
                f"serre_check {oracle.fmt(lx)} {oracle.fmt(ly)} over {F}",
                lambda zd=zd, X=X, Y=Y: zd.serre_check(X, Y),
                check_serre,
                (True, True if torsion_free else None),
            ))
    random.Random(seed).shuffle(ops)
    return Workload("serre-sweep", ops, (SERRE_PRIME,), digest(op.desc for op in ops))


# ---------------------------------------------------------------------------
# krull-schmidt: decompose conjugated random sums and isotypic powers


def ks_shapes():
    """Every count (rank-two, torsion, rank-one) of 1..6 summands whose
    lattice rank is at most KS_MAX_RANK."""
    out = []
    for k in range(1, 7):
        for r2 in range(k + 1):
            for t in range(k - r2 + 1):
                if 2 * r2 + (k - r2 - t) <= KS_MAX_RANK:
                    out.append((r2, t, k - r2 - t))
    return out


def _random_invertible(zd, F, rng, n):
    while True:
        M = tuple(tuple(F.of_int(rng.randint(-2, 2)) for _ in range(n)) for _ in range(n))
        if zd.linalg.inverse(F, M) is not None:
            return M


def _conjugated_sum(zd, F, rng, shape):
    """A direct sum of the given shape, its lattice conjugated by random
    type-diagonal invertible matrices with entries in [-2, 2]."""
    r2, t, r1 = shape
    labels, parts = [], []
    for _ in range(r2):
        label = ("F", rng.randint(1, 3), rng.randint(-2, 2))
        labels.append(label)
        parts.append(zd.rank_two(F, label[1], label[2]))
    for _ in range(t):
        label = ("T", rng.randint(1, 3), rng.randint(-2, 2))
        labels.append(label)
        parts.append(zd.torsion_cyclic(F, label[1], label[2]))
    for _ in range(r1):
        i, a = rng.randint(0, 1), rng.randint(-2, 2)
        labels.append((f"F{i}", a))
        parts.append(zd.rank_one(F, i, a))
    X = zd.objects.direct_sum_many(parts)[0]
    u0 = _random_invertible(zd, F, rng, X.p) if X.p else ()
    u1 = _random_invertible(zd, F, rng, X.q) if X.q else ()
    if X.rank:
        gens = []
        for e, d in X.lattice.generators():
            top = zd.linalg.mat_vec(F, u0, d[: X.p]) if X.p else ()
            bot = zd.linalg.mat_vec(F, u1, d[X.p:]) if X.q else ()
            gens.append((e, tuple(top) + tuple(bot)))
        X = zd.CObject(F, X.torsion, zd.canonicalize(F, gens, X.p, X.q))
    return X, labels, (u0, u1)


def check_decompose(dec, expected):
    got = sorted(str(f) for f in dec.factors)
    return got == expected, " + ".join(got)


def build_krull_schmidt(zd, seed):
    rng = random.Random(KS_INPUT_SEED)
    ops, record = [], []
    fields = [("Q", zd.QQ)] + [(p, zd.GF(p)) for p in KS_PRIMES]
    for key, F in fields:
        inputs = []
        for shape in ks_shapes() * KS_COPIES[key]:
            X, labels, conj = _conjugated_sum(zd, F, rng, shape)
            inputs.append((X, labels, "conjugated sum"))
            record.append((str(F), sorted(map(oracle.fmt, labels)), conj))
        power = zd.rank_two(F, 2, 0)
        for k in range(2, 7):
            X = zd.objects.direct_sum_many([power] * k)[0]
            inputs.append((X, [("F", 2, 0)] * k, "isotypic power"))
        for X, labels, kind in inputs:
            want = sorted(map(oracle.fmt, labels))
            ops.append(Op(
                _field_tag(F),
                f"decompose {kind} {' + '.join(want)} over {F}",
                lambda zd=zd, X=X: zd.decompose(X),
                check_decompose,
                want,
            ))
    random.Random(seed).shuffle(ops)
    return Workload(
        "krull-schmidt", ops, KS_PRIMES, digest(record),
        {"shapes": len(ks_shapes()), "copies": {str(k): v for k, v in KS_COPIES.items()}},
    )


# ---------------------------------------------------------------------------
# ar-mesh: CLI calls of ars on a quiver window, a length ladder, and quiver


def check_ars(result, expected):
    code, out = result
    if code != 0:
        return False, f"exit {code}: {out}"
    got = json.loads(out)
    ok = (got["left"], sorted(got["middle"]), got["right"]) == expected
    return ok, out


def check_quiver(result, expected):
    code, out = result
    if code != 0:
        return False, f"exit {code}: {out}"
    got = sorted(map(list, json.loads(out)["arrows"]))
    return got == expected, out


def build_ar_mesh(zd, seed):
    m_max, a_min, a_max, n_max = QUIVER_BOUNDS
    nodes = oracle.enlarged_window(m_max, a_min, a_max, n_max)
    nodes += [(kind, n, 0) for n in LADDER for kind in ("T", "F")]
    ops = []
    for F, flag in ((zd.QQ, "Q"), (zd.GF(AR_PRIME), f"Fp:{AR_PRIME}")):
        base = ["--field", flag, "--format", "json"]
        for node in nodes:
            argv = base + ["ars", oracle.fmt(node)]
            expected = (
                oracle.fmt(oracle.tau(node)),
                sorted(map(oracle.fmt, oracle.middle(node))),
                oracle.fmt(node),
            )
            ops.append(Op(
                _field_tag(F), " ".join(argv),
                lambda zd=zd, argv=argv: zd.cli.run_command(argv), check_ars, expected,
            ))
        argv = base + ["quiver", "--m-max", str(m_max), "--a-min", str(a_min),
                       "--a-max", str(a_max), "--n-max", str(n_max)]
        ops.append(Op(
            _field_tag(F), " ".join(argv),
            lambda zd=zd, argv=argv: zd.cli.run_command(argv), check_quiver,
            oracle.quiver_arrows(m_max, a_min, a_max, n_max),
        ))
    random.Random(seed).shuffle(ops)
    return Workload("ar-mesh", ops, (AR_PRIME,), digest(op.desc for op in ops))


BUILDERS = {
    "serre-sweep": build_serre,
    "krull-schmidt": build_krull_schmidt,
    "ar-mesh": build_ar_mesh,
}
