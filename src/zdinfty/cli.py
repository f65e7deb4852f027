"""Command-line surface: object expressions, reports, quiver export.

Objects are entered as sums of atoms F0[a], F1[a], F[m,a], T[n,a] or as a
JSON literal {"field": "Q", "torsion": [[n, a], ...], "lattice": {"p": ...,
"q": ..., "gens": [{"jump": ..., "dir": [...]}]}}.  All reports are
deterministic for a fixed field and seed (the seed only draws selftest's
random sums); --format json emits versioned machine-readable records, and
under it every exit-2 or exit-3 path prints a JSON error record instead of a
text line.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import sys

from .ar import almost_split, dot_export, quiver_window, verify_exact, window_to_json
from .decomp import (
    decompose,
    filtration,
    label_to_object,
    label_window,
    rank_one_label,
    rank_two_label,
    wing,
)
from .errors import ParseError, RangeError, ZdinftyError
from .fields import FieldSpec, parse_field
from .homext import (
    eta,
    ext_space,
    hom_space,
    serre_check,
    serre_twist_morphism,
    yoneda_compose,
)
from .lattice import canonicalize, GradedLattice
from .objects import (
    CObject,
    TorsionPart,
    direct_sum_many,
    serre_twist,
    zero_object,
)
from .singularity import singularity_index

SCHEMA = "zdinfty.report/1"
DEFAULT_SEED = 2024


# ---------------------------------------------------------------------------
# object expressions


def parse_object(text: str, field: FieldSpec) -> CObject:
    """Parse a sum of atoms or a JSON object literal."""
    text = text.strip()
    if text.startswith("{"):
        return _parse_json_literal(text, field)
    if text == "0":
        return zero_object(field)
    labels = []
    pos = 0
    expect_atom = True
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        if not expect_atom:
            if text[pos] != "+":
                raise ParseError("expected '+'", pos)
            pos += 1
            expect_atom = True
            continue
        label, pos = _parse_atom(text, pos)
        labels.append(label)
        expect_atom = False
    if expect_atom:
        raise ParseError("expected an atom", pos)
    if len(labels) == 1:
        return label_to_object(field, labels[0])
    return direct_sum_many([label_to_object(field, l) for l in labels])[0]


def _parse_atom(text, pos):
    for head, maker, nargs in (
        ("F0[", lambda args: rank_one_label(0, args[0]), 1),
        ("F1[", lambda args: rank_one_label(1, args[0]), 1),
        ("F[", lambda args: _checked_rank_two(*args), 2),
        ("T[", lambda args: _checked_wing(*args), 2),
    ):
        if text.startswith(head, pos):
            end = text.find("]", pos)
            if end < 0:
                raise ParseError("missing ']'", pos)
            inner = text[pos + len(head): end]
            parts = inner.split(",")
            if len(parts) != nargs:
                raise ParseError(f"expected {nargs} integer(s)", pos)
            try:
                args = [int(p.strip()) for p in parts]
            except ValueError:
                raise ParseError("expected an integer", pos)
            return maker(args), end + 1
    raise ParseError("expected F0[, F1[, F[ or T[", pos)


def _checked_rank_two(m, a):
    if m < 1:
        raise RangeError(f"rank-two atoms need m >= 1, got {m}")
    return rank_two_label(m, a)


def _checked_wing(n, a):
    if n < 1:
        raise RangeError(f"torsion atoms need n >= 1, got {n}")
    return wing(n, a)


def _parse_json_literal(text, field: FieldSpec) -> CObject:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON literal: {e.msg}", e.pos)
    _check_keys(data, ("field", "torsion", "lattice"), "literal")
    if "field" in data:
        field = parse_field(str(data["field"]))
    torsion = data.get("torsion", [])
    if not isinstance(torsion, list):
        raise ParseError("JSON torsion is not a list of [n, a] pairs", 0)
    for s in torsion:
        if not (isinstance(s, list) and len(s) == 2 and all(map(_is_json_int, s))):
            raise ParseError(f"torsion entry {s!r} is not an [n, a] pair of integers", 0)
    lat_data = data.get("lattice")
    if lat_data is None:
        lattice = GradedLattice(field, 0, 0, ())
    else:
        _check_keys(lat_data, ("p", "q", "gens"), "lattice")
        try:
            gens = []
            for g in lat_data.get("gens", []):
                _check_keys(g, ("jump", "dir"), "gen")
                dir = tuple(
                    field.of_int(c) if _is_json_int(c) else field.parse_scalar(str(c))
                    for c in g["dir"]
                )
                gens.append((_json_int(g["jump"], "jump"), dir))
            p, q = _json_int(lat_data["p"], "p"), _json_int(lat_data["q"], "q")
        except KeyError as e:
            raise ParseError(f"JSON literal lacks the key {e.args[0]!r}", 0)
        except (AttributeError, TypeError, ValueError):
            raise ParseError("JSON lattice does not follow the object schema", 0)
        if p < 0 or q < 0:
            raise RangeError(f"lattice type counts must be non-negative, got p={p}, q={q}")
        if p + q == 0 and gens:
            raise ParseError("a JSON lattice with p = q = 0 takes no gens", 0)
        lattice = canonicalize(field, gens, p, q)
    return CObject(field, TorsionPart.of(torsion), lattice)


def _check_keys(data, allowed, what: str) -> None:
    """Reject a key outside ``allowed``: a misplaced key would be dropped."""
    if isinstance(data, dict):
        for key in data:
            if key not in allowed:
                raise ParseError(f"JSON {what} has the unknown key {key!r}", 0)


def _is_json_int(v) -> bool:
    """A JSON integer: not a float (0.5, 1e400, Infinity) and not a boolean."""
    return isinstance(v, int) and not isinstance(v, bool)


def _json_int(v, key: str) -> int:
    if not _is_json_int(v):
        raise ParseError(f"JSON {key} {v!r} is not an integer", 0)
    return v


def print_object(X: CObject) -> str:
    """Canonical sorted label-list form."""
    if X.is_zero():
        return "0"
    dec = decompose(X)
    return " + ".join(str(f) for f in dec.factors)


# ---------------------------------------------------------------------------
# catalog specs

# Most ordered pairs a catalog may give a duality sweep: 1,500 objects.  A
# sweep at the limit, "m<=74,n<=74,a>=-5,a<=4", takes 45 s over Q and 42 s
# over F_3 (Python 3.11.7, 2 shared cores).
MAX_CATALOG_PAIRS = 2_250_000


def parse_catalog(spec: str, field: FieldSpec):
    """Objects allowed by bounds like "m<=3,n<=3,|a|<=2".

    The objects and their ordered pairs are counted before any label is
    listed: (2 + m_max + n_max) labels per a, the F0, F1, F[m] and T[n]
    there.  An empty catalog, or one past MAX_CATALOG_PAIRS pairs, raises
    RangeError.
    """
    m_max, n_max, a_min, a_max = 2, 2, -1, 1
    pos = 0
    for raw in spec.split(",") if spec else ():
        clause = raw.strip().replace(" ", "")
        try:
            if clause.startswith("m<="):
                m_max = int(clause[3:])
            elif clause.startswith("n<="):
                n_max = int(clause[3:])
            elif clause.startswith("|a|<="):
                bound = int(clause[5:])
                a_min, a_max = -bound, bound
            elif clause.startswith("a>="):
                a_min = int(clause[3:])
            elif clause.startswith("a<="):
                a_max = int(clause[3:])
            else:
                raise ParseError(f"unknown catalog clause {clause!r}", pos)
        except ValueError:
            raise ParseError(f"expected an integer bound in catalog clause {clause!r}", pos)
        pos += len(raw) + 1
    count = (2 + max(m_max, 0) + max(n_max, 0)) * max(a_max - a_min + 1, 0)
    if not count:
        raise RangeError(f"catalog {spec!r} admits no objects")
    if count * count > MAX_CATALOG_PAIRS:
        raise RangeError(
            f"catalog {spec!r} admits {count} objects, {count * count} ordered pairs;"
            f" the limit is {MAX_CATALOG_PAIRS} ordered pairs"
        )
    return [label_to_object(field, l) for l in label_window(m_max, n_max, a_min, a_max)]


# ---------------------------------------------------------------------------
# commands


def _emit(args, payload: dict, text: str) -> str:
    if args.format == "json":
        payload = {"schema": SCHEMA, **payload}
        return json.dumps(payload, sort_keys=True)
    return text


def cmd_hom(args, field) -> tuple[int, str]:
    X = parse_object(args.A, field)
    Y = parse_object(args.B, field)
    d = hom_space(X, Y).dim
    return 0, _emit(args, {"command": "hom", "dim": d}, f"dim Hom = {d}")


def cmd_ext(args, field) -> tuple[int, str]:
    X = parse_object(args.A, field)
    Y = parse_object(args.B, field)
    d = ext_space(X, Y).dim
    return 0, _emit(args, {"command": "ext", "dim": d}, f"dim Ext1 = {d}")


def cmd_euler(args, field) -> tuple[int, str]:
    X = parse_object(args.A, field)
    Y = parse_object(args.B, field)
    h = hom_space(X, Y).dim
    e = ext_space(X, Y).dim
    return 0, _emit(
        args,
        {"command": "euler", "hom": h, "ext": e, "euler": h - e},
        f"dim Hom = {h}, dim Ext1 = {e}, euler = {h - e}",
    )


def cmd_serre(args, field) -> tuple[int, str]:
    objs = parse_catalog(args.catalog, field)
    failures = []
    pairs = 0
    for X, Y in itertools.product(objs, repeat=2):
        pairs += 1
        report = serre_check(X, Y)
        if not report.passed:
            failures.append(
                {
                    "X": print_object(X),
                    "Y": print_object(Y),
                    "dim_hom": report.dim_hom,
                    "dim_ext_twisted": report.dim_ext_twisted,
                    "gram_rank": report.gram_rank,
                }
            )
    ok = not failures
    payload = {"command": "serre", "pairs": pairs, "failures": failures, "passed": ok}
    lines = [f"serre duality sweep: {pairs} ordered pairs"]
    for f in failures:
        lines.append(
            f"  FAIL {f['X']} vs {f['Y']}: hom={f['dim_hom']} ext={f['dim_ext_twisted']}"
        )
    lines.append("PASS" if ok else "FAIL")
    return (0 if ok else 1), _emit(args, payload, "\n".join(lines))


def cmd_translate(args, field) -> tuple[int, str]:
    X = parse_object(args.A, field)
    VX = serre_twist(X)
    s = print_object(VX)
    return 0, _emit(args, {"command": "translate", "object": s}, s)


def cmd_decompose(args, field) -> tuple[int, str]:
    X = parse_object(args.A, field)
    dec = decompose(X)
    factors = [str(f) for f in dec.factors]
    return 0, _emit(
        args,
        {"command": "decompose", "factors": factors},
        " + ".join(factors) if factors else "0",
    )


def cmd_filtration(args, field) -> tuple[int, str]:
    X = parse_object(args.A, field)
    filt = filtration(X)
    labels = [str(l) for l in filt.labels]
    return 0, _emit(
        args,
        {"command": "filtration", "factors": labels},
        "factors (bottom to top): " + ", ".join(labels),
    )


def cmd_ars(args, field) -> tuple[int, str]:
    X = parse_object(args.A, field)
    mesh = almost_split(X)
    left = str(mesh.left_label)
    middle = " + ".join(str(f) for f in mesh.middle_factors)
    right = str(mesh.right_label)
    text = f"0 -> {left} -> {middle} -> {right} -> 0"
    return 0, _emit(
        args,
        {
            "command": "ars",
            "left": left,
            "middle": [str(f) for f in mesh.middle_factors],
            "right": right,
        },
        text,
    )


def cmd_quiver(args, field) -> tuple[int, str]:
    w = quiver_window(args.m_max, args.a_min, args.a_max, args.n_max)
    if args.format == "dot":
        return 0, dot_export(w)
    return 0, json.dumps(window_to_json(w), sort_keys=True)


def cmd_index(args, field) -> tuple[int, str]:
    X = parse_object(args.A, field)
    if not X.is_torsion_free():
        raise ZdinftyError("index applies to torsion-free objects")
    n = singularity_index(X)
    return 0, _emit(args, {"command": "index", "index": n}, f"singularity index = {n}")


def cmd_selftest(args, field) -> tuple[int, str]:
    lines = []
    ok = True

    def record(name, passed):
        nonlocal ok
        ok = ok and passed
        lines.append(f"selftest {name}: {'PASS' if passed else 'FAIL'}")

    # rank-one hom/ext tables
    good = True
    for i, j in itertools.product((0, 1), repeat=2):
        for a, b in itertools.product(range(-2, 3), repeat=2):
            X = label_to_object(field, rank_one_label(i, a))
            Y = label_to_object(field, rank_one_label(j, b))
            good &= hom_space(X, Y).dim == (1 if i == j and a <= b else 0)
            good &= ext_space(X, Y).dim == (1 if i == 1 - j and a > b else 0)
    record("rank-one tables", good)

    # duality sweep on a small catalog
    objs = parse_catalog("m<=2,n<=2,|a|<=1", field)
    good = all(
        serre_check(X, Y).passed for X, Y in itertools.product(objs, repeat=2)
    )
    record("serre duality", good)

    # mesh shapes, each middle decomposed to its factors, and each sequence
    # exact and nonsplit
    meshes = [
        almost_split(label_to_object(field, l))
        for l in (rank_two_label(2, 0), rank_one_label(0, 0), wing(2, 0))
    ]
    good = meshes[0].middle_factors == (rank_two_label(1, -1), rank_two_label(3, 0))
    good &= meshes[1].middle_factors == (rank_two_label(1, 0),)
    good &= meshes[2].left_label == wing(2, -1)
    for mesh in meshes:
        good &= decompose(mesh.middle).factors == mesh.middle_factors
        good &= not mesh.seq.is_split()
        try:
            verify_exact(mesh.seq)
        except ZdinftyError:
            good = False
    record("almost split sequences", good)

    # seeded random direct sums decompose to the input multiset
    rng = random.Random(args.seed)
    good = True
    for _ in range(10):
        labels = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(["r1", "r2", "t"])
            a = rng.randint(-2, 2)
            if kind == "r1":
                labels.append(rank_one_label(rng.randint(0, 1), a))
            elif kind == "r2":
                labels.append(rank_two_label(rng.randint(1, 3), a))
            else:
                labels.append(wing(rng.randint(1, 3), a))
        X = direct_sum_many([label_to_object(field, l) for l in labels])[0]
        rng.randint(0, 10 ** 6)  # unused draw: keeps each seed's sequence of sums stable
        dec = decompose(X)
        good &= sorted(map(str, dec.factors)) == sorted(map(str, labels))
    record("krull-schmidt", good)

    # trace-map adjointness on a sample
    good = True
    sample = [
        label_to_object(field, rank_two_label(1, 0)),
        label_to_object(field, rank_two_label(2, 1)),
        label_to_object(field, rank_one_label(0, 0)),
    ]
    for Fo, G in itertools.product(sample, repeat=2):
        exts = ext_space(G, serre_twist(Fo)).basis
        for f in hom_space(Fo, G).basis:
            for g in exts:
                lhs = eta(Fo, yoneda_compose(g, f))
                rhs = eta(G, yoneda_compose(serre_twist_morphism(f), g))
                good &= lhs == rhs
    record("trace adjointness", good)

    lines.append("selftest: " + ("PASS" if ok else "FAIL"))
    payload = {"command": "selftest", "passed": ok, "report": lines}
    return (0 if ok else 1), _emit(args, payload, "\n".join(lines))


# ---------------------------------------------------------------------------
# dispatch


class UsageError(Exception):
    """argparse rejected the command line."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises UsageError instead of exiting."""

    def error(self, message):
        raise UsageError(self, message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _Parser(
        prog="zdinfty",
        description="exact Hom/Ext, Serre duality and AR quivers for typed graded lattices",
    )
    parser.add_argument("--field", default="Q", help="Q or Fp:<prime>")
    parser.add_argument("--format", default="text", choices=["text", "json", "dot"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, needs_b in (("hom", True), ("ext", True), ("euler", True)):
        c = sub.add_parser(name)
        c.add_argument("A")
        if needs_b:
            c.add_argument("B")
    c = sub.add_parser("serre")
    c.add_argument("--catalog", default="")
    for name in ("translate", "decompose", "filtration", "ars", "index"):
        c = sub.add_parser(name)
        c.add_argument("A")
    c = sub.add_parser("quiver")
    c.add_argument("--m-max", type=int, required=True)
    c.add_argument("--a-min", type=int, required=True)
    c.add_argument("--a-max", type=int, required=True)
    c.add_argument("--n-max", type=int, required=True)
    sub.add_parser("selftest")
    return parser


COMMANDS = {
    "hom": cmd_hom,
    "ext": cmd_ext,
    "euler": cmd_euler,
    "serre": cmd_serre,
    "translate": cmd_translate,
    "decompose": cmd_decompose,
    "filtration": cmd_filtration,
    "ars": cmd_ars,
    "quiver": cmd_quiver,
    "index": cmd_index,
    "selftest": cmd_selftest,
}


def _error_record(e: Exception) -> str:
    """The JSON form of an exit-2 or exit-3 error."""
    error = {
        "type": type(e).__name__,
        "message": " ".join(str(e).split()),
        "position": e.position if isinstance(e, ParseError) else None,
    }
    return json.dumps({"schema": SCHEMA, "error": error}, sort_keys=True)


def _asks_for_json(argv) -> bool:
    """Whether a command line argparse rejected names --format json last."""
    fmt = None
    for i, arg in enumerate(argv):
        if arg == "--format" and i + 1 < len(argv):
            fmt = argv[i + 1]
        elif arg.startswith("--format="):
            fmt = arg.partition("=")[2]
    return fmt == "json"


def run_command(argv) -> tuple[int, str]:
    """Execute one invocation; returns (exit code, output text).

    Input errors exit 2; any other exception is a bug and exits 3 with a
    one-line ``internal error:`` message instead of a traceback.  Under
    --format json both print a ``zdinfty.report/1`` error record instead.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        e.parser.print_usage(sys.stderr)
        print(f"{e.parser.prog}: error: {e}", file=sys.stderr)
        return 2, _error_record(e) if _asks_for_json(argv) else ""
    except SystemExit:  # --help has printed its text
        return 0, ""
    try:
        field = parse_field(args.field)
        if args.command == "quiver" and args.format == "text":
            args.format = "dot"
        return COMMANDS[args.command](args, field)
    except (ParseError, RangeError, ZdinftyError) as e:
        return 2, _error_record(e) if args.format == "json" else f"error: {e}"
    except Exception as e:
        if args.format == "json":
            return 3, _error_record(e)
        message = " ".join(str(e).split())
        return 3, f"internal error: {type(e).__name__}: {message}"


def main(argv=None) -> int:
    code, output = run_command(sys.argv[1:] if argv is None else argv)
    if output:
        try:
            print(output)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed the pipe early: send the rest to devnull so
            # the flush at exit cannot fail, and keep the command's code.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
