"""Command-line surface: object expressions, reports, quiver export.

Objects are entered as sums of atoms F0[a], F1[a], F[m,a], T[n,a] (the
table ``_ATOMS``) or as a JSON literal, whose schema is the table
``_LITERAL``; an error in a literal names the JSON path of the bad value.
All reports are deterministic for a fixed field and seed (the seed only
draws selftest's random sums); --format json emits versioned
machine-readable records, and under it every exit-2 or exit-3 path prints a
JSON error record instead of a text line.

The command line is read from one table (``GLOBAL_OPTIONS`` and
``COMMAND_LINES``), which also dispatches: each command's row names its
handler and the positionals it reads as objects.  ``run_command`` parses
those objects, writes every record and reads every exit code off it; a
handler only computes.  The line follows argparse's conventions: global
options come before the command; an option takes its value as ``--opt
value`` or ``--opt=value``; a unique prefix of a long option names it
(``--fo json``); a repeated option keeps its last value; a value may start
with '-' if it is a number (``--a-min -3``); ``--`` ends a command's
options; ``-h``/``--help`` prints the usage.  A rejected line prints a
JSON error record under any accepted spelling of ``--format json``.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import sys
from types import SimpleNamespace
from typing import NamedTuple

from .ar import almost_split, dot_export, quiver_window, verify_exact, window_to_json
from .decomp import (
    decompose,
    dimensions,
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
from .lattice import canonicalize
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
    # One atom skips ``direct_sum_many``; kept because taking it out made
    # ar-mesh 10-12 % slower (CHANGES.md, the fast-path table).
    if len(labels) == 1:
        return label_to_object(field, labels[0])
    return direct_sum_many([label_to_object(field, l) for l in labels])[0]


# The atoms: head, label constructor, arity, and the range rule (what must
# have its first integer >= 1, or None).
_ATOMS = (
    ("F0[", lambda a: rank_one_label(0, a), 1, None),
    ("F1[", lambda a: rank_one_label(1, a), 1, None),
    ("F[", rank_two_label, 2, "rank-two atoms need m"),
    ("T[", wing, 2, "torsion atoms need n"),
)


def _parse_atom(text, pos):
    for head, maker, nargs, positive in _ATOMS:
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
            if positive and args[0] < 1:
                raise RangeError(f"{positive} >= 1, got {args[0]}")
            return maker(*args), end + 1
    raise ParseError("expected F0[, F1[, F[ or T[", pos)


class _List(NamedTuple):
    """A JSON array of ``item``s, of exactly ``length`` of them unless None."""

    item: object
    length: int | None = None


class _Object(NamedTuple):
    """A JSON object: each key it may hold with its schema, and the keys it must."""

    keys: dict
    required: tuple = ()


# The JSON object literal's schema, its one owner.  A leaf is the tuple of the
# Python types its JSON values load as; a JSON integer is an int, never a bool
# or a float (0.5, 1e400, Infinity).  The rules on values are checked where
# the object is built, and each error names the value's path (``_at``): p,
# q >= 0, dir's length p + q, its scalars and n >= 1; the lattice's rank
# in canonicalize.
_JSON_TYPE_NAMES = {int: "an integer", str: "a string"}
_LITERAL = _Object({
    "field": (str,),
    "torsion": _List(_List((int,), 2)),
    "lattice": _Object({
        "p": (int,), "q": (int,),
        "gens": _List(_Object({"jump": (int,), "dir": _List((int, str))}, ("jump", "dir"))),
    }, ("p", "q")),
})


def _check_json(value, schema, path: str) -> None:
    """Raise ParseError at the first value under ``path`` that ``schema`` does
    not take: a wrong type or length, an unknown key or a missing one.  The
    message names the value's JSON path and writes the value as JSON."""
    if isinstance(schema, _Object):
        fits, wanted = type(value) is dict, "an object"
    elif isinstance(schema, _List):
        fits = type(value) is list and schema.length in (None, len(value))
        wanted = f"a list of {schema.length}" if schema.length else "a list"
    else:
        fits, wanted = type(value) in schema, " or ".join(map(_JSON_TYPE_NAMES.get, schema))
    if not fits:
        raise ParseError(f"JSON {path} must be {wanted}, got {json.dumps(value)}", 0)
    if isinstance(schema, _List):
        for i, item in enumerate(value):
            _check_json(item, schema.item, f"{path}[{i}]")
    elif isinstance(schema, _Object):
        for key in value:
            if key not in schema.keys:
                raise ParseError(f"JSON {path} has the unknown key {json.dumps(key)}", 0)
        for key in schema.required:
            if key not in value:
                raise ParseError(f"JSON {path} lacks the key {json.dumps(key)}", 0)
        for key, item in value.items():
            _check_json(item, schema.keys[key], f"{path}.{key}")


def _parse_json_literal(text, field: FieldSpec) -> CObject:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON literal: {e.msg}", e.pos)
    except RecursionError:
        raise ParseError("JSON literal nests too deeply", 0)
    except ValueError:  # the only other one: an integer past the digit limit
        raise ParseError(
            f"JSON literal has an integer of more than {sys.get_int_max_str_digits()} digits", 0
        )
    _check_json(data, _LITERAL, "literal")
    field = parse_field(data["field"]) if "field" in data else field
    lat = data.get("lattice", {"p": 0, "q": 0})  # no lattice: the one of rank 0
    p, q, gens = lat["p"], lat["q"], lat.get("gens", [])
    for key in ("p", "q"):
        if lat[key] < 0:
            raise _at(f"literal.lattice.{key}",
                      f"lattice type counts must be non-negative, got p={p}, q={q}")
    if p + q == 0 and gens:
        raise ParseError("a JSON lattice with p = q = 0 takes no gens", 0)
    dirs = []
    for j, g in enumerate(gens):
        path = f"literal.lattice.gens[{j}].dir"
        if len(g["dir"]) != p + q:
            raise _at(path, f"direction of length {len(g['dir'])}, ambient rank {p + q}")
        dirs.append([])
        for k, c in enumerate(g["dir"]):
            try:
                dirs[-1].append(field.parse_scalar(str(c)))
            except ZdinftyError as e:
                raise _at(f"{path}[{k}]", getattr(e, "message", e)) from None
    for i, (n, _) in enumerate(data.get("torsion", [])):
        if n < 1:
            raise _at(f"literal.torsion[{i}][0]", f"torsion summand needs positive length, got {n}")
    gens = [(g["jump"], d) for g, d in zip(gens, dirs)]
    return CObject(field, TorsionPart.of(data.get("torsion", [])), canonicalize(field, gens, p, q))


def _at(path: str, message) -> ParseError:
    """The error of a value the literal's schema takes but the object it
    builds does not, named by the value's JSON path."""
    return ParseError(f"JSON {path}: {message}", 0)


def _unique_keys(pairs) -> dict:
    """The literal's ``object_pairs_hook``: a repeated key would hide a value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ParseError(f"JSON literal repeats the key {json.dumps(key)}", 0)
        data[key] = value
    return data


def print_object(X: CObject) -> str:
    """Canonical sorted label-list form; ``0`` for the zero object."""
    return " + ".join(str(f) for f in decompose(X).factors) or "0"


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


# Each handler takes the args, the field and the objects its row names, and
# returns (record, text): the report without its schema and command keys,
# and the text output.  ``run_command`` prints one of them and reads the exit
# code off the record's "passed".


def cmd_hom(args, field, X, Y) -> tuple[dict, str]:
    d = dimensions(X, Y)[0]
    return {"dim": d}, f"dim Hom = {d}"


def cmd_ext(args, field, X, Y) -> tuple[dict, str]:
    d = dimensions(X, Y)[1]
    return {"dim": d}, f"dim Ext1 = {d}"


def cmd_euler(args, field, X, Y) -> tuple[dict, str]:
    h, e = dimensions(X, Y)
    return (
        {"hom": h, "ext": e, "euler": h - e},
        f"dim Hom = {h}, dim Ext1 = {e}, euler = {h - e}",
    )


def cmd_serre(args, field) -> tuple[dict, str]:
    objs = parse_catalog(args.catalog, field)
    failures = []
    for X, Y in itertools.product(objs, repeat=2):
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
    record = {"pairs": len(objs) ** 2, "failures": failures, "passed": ok}
    lines = [f"serre duality sweep: {record['pairs']} ordered pairs"]
    for f in failures:
        lines.append(
            f"  FAIL {f['X']} vs {f['Y']}: hom={f['dim_hom']} ext={f['dim_ext_twisted']}"
        )
    lines.append("PASS" if ok else "FAIL")
    return record, "\n".join(lines)


def cmd_translate(args, field, X) -> tuple[dict, str]:
    VX = serre_twist(X)
    s = print_object(VX)
    return {"object": s}, s


def cmd_decompose(args, field, X) -> tuple[dict, str]:
    dec = decompose(X)
    factors = [str(f) for f in dec.factors]
    return {"factors": factors}, " + ".join(factors) or "0"


def cmd_filtration(args, field, X) -> tuple[dict, str]:
    filt = filtration(X)
    labels = [str(l) for l in filt.labels]
    return {"factors": labels}, "factors (bottom to top): " + ", ".join(labels)


def cmd_ars(args, field, X) -> tuple[dict, str]:
    mesh = almost_split(X)
    left = str(mesh.left_label)
    middle = [str(f) for f in mesh.middle_factors]
    right = str(mesh.right_label)
    text = f"0 -> {left} -> {' + '.join(middle)} -> {right} -> 0"
    return {"left": left, "middle": middle, "right": right}, text


def cmd_quiver(args, field) -> tuple[None, str]:
    """The output is its own document (an export or DOT), with no record."""
    w = quiver_window(args.m_max, args.a_min, args.a_max, args.n_max)
    if args.format == "json":
        return None, json.dumps(window_to_json(w), sort_keys=True)
    return None, dot_export(w)


def cmd_index(args, field, X) -> tuple[dict, str]:
    n = singularity_index(X)
    return {"index": n}, f"singularity index = {n}"


def cmd_selftest(args, field) -> tuple[dict, str]:
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

    # the serre sweep on a small catalog
    sweep = SimpleNamespace(catalog="m<=2,n<=2,|a|<=1")
    record("serre duality", cmd_serre(sweep, field)[0]["passed"])

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

    # seeded random direct sums of catalog labels decompose to the input multiset
    rng = random.Random(args.seed)
    catalog = label_window(3, 3, -2, 2)
    good = True
    for _ in range(10):
        labels = rng.choices(catalog, k=rng.randint(1, 4))
        X = direct_sum_many([label_to_object(field, l) for l in labels])[0]
        good &= sorted(map(str, decompose(X).factors)) == sorted(map(str, labels))
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
    return {"passed": ok, "report": lines}, "\n".join(lines)


# ---------------------------------------------------------------------------
# the command line and dispatch


class UsageError(Exception):
    """The command line does not fit the grammar (exit 2)."""

    def __init__(self, level: _Level, message: str):
        super().__init__(message)
        self.level = level
        self.format = "text"  # the global --format as read, for the error record


class _Help(Exception):
    """-h or --help: print the help of ``level`` and exit 0."""

    def __init__(self, level: _Level):
        super().__init__(level.prog)
        self.level = level


class Opt(NamedTuple):
    """An option that takes one value: ``--flag VALUE`` or ``--flag=VALUE``."""

    flag: str
    type: type = str
    default: object = None
    required: bool = False
    choices: tuple = ()
    help: str = ""

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    @property
    def metavar(self) -> str:
        return "{" + ",".join(self.choices) + "}" if self.choices else self.dest.upper()


# The grammar: global options, then one command with its handler, its
# positionals (each read as an object) and its options.  This table alone
# gives the parser, the usage lines, the help, the dispatch and the objects
# each handler is given.
PROG = "zdinfty"
DESCRIPTION = "exact Hom/Ext, Serre duality and AR quivers for typed graded lattices"
GLOBAL_OPTIONS = (
    Opt("--field", default="Q", help="Q or Fp:<prime>"),
    Opt("--format", default="text", choices=("text", "json", "dot")),
    Opt("--seed", int, DEFAULT_SEED),
)
COMMAND_LINES = {  # command: (handler, positionals, options), in the order help lists them
    "hom": (cmd_hom, ("A", "B"), ()),
    "ext": (cmd_ext, ("A", "B"), ()),
    "euler": (cmd_euler, ("A", "B"), ()),
    "serre": (cmd_serre, (), (Opt("--catalog", default=""),)),
    "translate": (cmd_translate, ("A",), ()),
    "decompose": (cmd_decompose, ("A",), ()),
    "filtration": (cmd_filtration, ("A",), ()),
    "ars": (cmd_ars, ("A",), ()),
    "index": (cmd_index, ("A",), ()),
    "quiver": (cmd_quiver, (), tuple(Opt(f, int, required=True)
                                     for f in ("--m-max", "--a-min", "--a-max", "--n-max"))),
    "selftest": (cmd_selftest, (), ()),
}
_HELP = Opt("--help", help="show this help message and exit")


class _Level:
    """The global level or one command: what its tokens may be."""

    def __init__(self, prog: str, positionals: tuple, options: tuple):
        self.prog, self.positionals, self.options = prog, positionals, options
        self.flags = {"-h": _HELP, "--help": _HELP, **{o.flag: o for o in options}}


TOP = _Level(PROG, ("{" + ",".join(COMMAND_LINES) + "}",), GLOBAL_OPTIONS)  # shown, not read
LEVELS = {name: _Level(f"{PROG} {name}", *spec) for name, (_, *spec) in COMMAND_LINES.items()}
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # a value, though it starts with '-'


def _classify(level: _Level, arg: str):
    """One token before ``--``: None for a value, else (Opt, flag, the value
    glued on with '=' or None); the Opt is None for an unknown option."""
    if arg[:1] != "-" or arg == "-":
        return None
    flags = level.flags
    if arg in flags:
        return flags[arg], arg, None
    name, eq, value = arg.partition("=")
    if eq and name in flags:
        return flags[name], name, value
    if arg[1] == "-":  # a unique prefix of a long flag
        hits, value = [f for f in flags if f.startswith(name)], value if eq else None
    else:  # -h with a tail
        hits, value = (["-h"], arg[2:]) if arg[1] == "h" else ([], None)
    if len(hits) > 1:
        raise UsageError(level, f"ambiguous option: {arg} could match {', '.join(hits)}")
    if hits:
        return flags[hits[0]], hits[0], value
    if _NEGATIVE.match(arg) or " " in arg:
        return None
    return None, arg, None


def _take(level: _Level, hits: list, args: list, i: int, ns) -> tuple[int, str | None]:
    """Read the option at ``args[i]`` into ``ns``; returns the index after it
    and an error message or None.  ``hits`` classifies the tokens before ``--``."""
    opt, flag, value = hits[i]
    i += 1
    if opt is _HELP:
        while value and flag == "-h" and value[0] == "h":  # -hh is -h -h
            value = value[1:] or None
        if value is None:
            raise _Help(level)
        return i, f"argument -h/--help: ignored explicit argument {value!r}"
    if value is None:
        if i == len(hits) or hits[i] is not None:
            return i, f"argument {opt.flag}: expected one argument"
        value = args[i]
        i += 1
    if opt.type is int:
        try:
            value = int(value)
        except ValueError:
            return i, f"argument {opt.flag}: invalid int value: {value!r}"
    setattr(ns, opt.dest, value)
    if opt.choices and value not in opt.choices:
        choices = ", ".join(map(repr, opt.choices))
        return i, f"argument {opt.flag}: invalid choice: {value!r} (choose from {choices})"
    return i, None


def _read_command(level: _Level, args: list, ns) -> list:
    """Read one command's tokens into ``ns``; returns those it does not take."""
    stop = args.index("--") if "--" in args else len(args)
    hits = [_classify(level, arg) for arg in args[:stop]]
    for opt in level.options:
        setattr(ns, opt.dest, opt.default)
    todo = list(level.positionals)
    extras = []
    took = False  # whether the last token filled a positional
    i = 0
    while i < len(args):
        if i < stop and hits[i] is not None:
            took = False
            if hits[i][0] is None:
                extras.append(args[i])
                i += 1
                continue
            i, message = _take(level, hits, args, i, ns)
            if message:
                raise UsageError(level, message)
        elif i == stop:  # the first '--' goes where a positional is beside it
            if not (took or todo):
                extras.append(args[i])
            i += 1
        else:
            took = bool(todo)
            if took:
                setattr(ns, todo.pop(0), args[i])
            else:
                extras.append(args[i])
            i += 1
    missing = todo + [o.flag for o in level.options if o.required and getattr(ns, o.dest) is None]
    if missing:
        raise UsageError(level, "the following arguments are required: " + ", ".join(missing))
    return extras


def _read(argv: list, ns) -> None:
    stop = argv.index("--") if "--" in argv else len(argv)
    hits, error = [], None
    for arg in argv[:stop]:
        try:
            hits.append(_classify(TOP, arg))
        except UsageError as e:  # raised before any option is read
            error = error or e
            hits.append((None, arg, None))
    extras = []
    i = 0
    # the global options: after an error they are still read, for --format
    while i < stop and hits[i] is not None:
        if hits[i][0] is None:
            extras.append(argv[i])
            i += 1
            continue
        try:
            i, message = _take(TOP, hits, argv, i, ns)
        except _Help:
            if error:
                break
            raise
        if message and not error:
            error = UsageError(TOP, message)
    if error:
        raise error
    if i == len(argv) or (i == stop and i + 1 == len(argv)):
        raise UsageError(TOP, "the following arguments are required: command")
    ns.command = command = argv[i]
    if command not in LEVELS:
        choices = ", ".join(map(repr, LEVELS))
        raise UsageError(TOP, f"argument command: invalid choice: {command!r} (choose from {choices})")
    extras += _read_command(LEVELS[command], argv[i + 1:], ns)
    if extras:
        raise UsageError(TOP, "unrecognized arguments: " + " ".join(extras))


def parse_command_line(argv) -> SimpleNamespace:
    """The args of a command line, read as ``GLOBAL_OPTIONS`` and
    ``COMMAND_LINES`` say.  Raises UsageError on a line they reject."""
    ns = SimpleNamespace(**{o.dest: o.default for o in GLOBAL_OPTIONS}, command=None)
    try:
        _read(list(argv), ns)
    except UsageError as e:
        e.format = ns.format
        raise
    return ns


def _usage(level: _Level) -> str:
    """The usage line, wrapped at 78 columns; positionals start a new line."""
    opts = ["[-h]"] + [f"{o.flag} {o.metavar}" if o.required else f"[{o.flag} {o.metavar}]"
                       for o in level.options]
    pos = list(level.positionals) + (["..."] if level is TOP else [])
    indent = " " * len(f"usage: {level.prog} ")
    if len(indent) + len(" ".join(opts + pos)) <= 78:
        return f"usage: {level.prog} " + " ".join(opts + pos)
    lines = []
    for parts in (opts, pos):
        for k, part in enumerate(parts):
            if k == 0 or len(indent) + len(lines[-1]) + 1 + len(part) > 78:
                lines.append(part)
            else:
                lines[-1] += " " + part
    return f"usage: {level.prog} " + ("\n" + indent).join(lines)


def _help(level: _Level) -> str:
    """The -h/--help text of one level."""
    pos = list(level.positionals)
    rows = [("-h, --help", _HELP.help)] + [(f"{o.flag} {o.metavar}", o.help) for o in level.options]
    width = min(max(len(s) for s in pos + [r[0] for r in rows]) + 4, 24)
    sections = [_usage(level)] + ([DESCRIPTION] if level is TOP else [])
    if pos:
        sections.append("positional arguments:\n" + "\n".join("  " + p for p in pos))
    sections.append("options:\n" + "\n".join(
        ("  " + inv.ljust(width - 4) + "  " + text) if text else "  " + inv for inv, text in rows
    ))
    return "\n\n".join(sections)


def _error_record(e: Exception) -> str:
    """The JSON form of an exit-2 or exit-3 error."""
    error = {
        "type": type(e).__name__,
        "message": " ".join(str(e).split()),
        "position": e.position if isinstance(e, ParseError) else None,
    }
    return json.dumps({"schema": SCHEMA, "error": error}, sort_keys=True)


def run_command(argv) -> tuple[int, str]:
    """Execute one invocation; returns (exit code, output text).

    The command's row names its handler and the positionals it parses as
    objects, each distinct text once, in order.  The handler's record is
    printed under --format json, with the schema and the command added, and
    its text otherwise; a record with "passed" false exits 1.  A handler
    with no record (``quiver``) prints its text in every format.  Input
    errors exit 2; any other exception is a bug and exits 3 with a one-line
    ``internal error:`` message instead of a traceback.  Under --format
    json both print a ``zdinfty.report/1`` error record instead.
    -h/--help exits 0 with the help text as the output.
    """
    try:
        args = parse_command_line(argv)
    except UsageError as e:
        print(f"{_usage(e.level)}\n{e.level.prog}: error: {e}", file=sys.stderr)
        return 2, _error_record(e) if e.format == "json" else ""
    except _Help as e:
        return 0, _help(e.level)
    try:
        field = parse_field(args.field)
        handler, positionals, _ = COMMAND_LINES[args.command]
        texts = [getattr(args, name) for name in positionals]
        parsed = {text: parse_object(text, field) for text in dict.fromkeys(texts)}
        objects = [parsed[text] for text in texts]
        record, text = handler(args, field, *objects)
        if record is None:
            return 0, text
        if args.format == "json":
            text = json.dumps({"schema": SCHEMA, "command": args.command, **record}, sort_keys=True)
        return int(record.get("passed") is False), text
    except ZdinftyError as e:
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
