"""Object grammar, command dispatch, determinism, exit codes."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from zdinfty import cli
from zdinfty.cli import parse_catalog, parse_object, print_object, run_command
from zdinfty.decomp import label_to_object
from zdinfty.errors import ParseError, RangeError
from zdinfty.fields import GF, QQ
from zdinfty.objects import direct_sum_many, rank_one, rank_two, torsion_cyclic

from test_exact_scalars import _window_labels

F = QQ


def test_parse_atoms():
    assert parse_object("F[2,1]", F) == rank_two(F, 2, 1)
    assert parse_object("F0[3]", F) == rank_one(F, 0, 3)
    assert parse_object("T[2,-1]", F) == torsion_cyclic(F, 2, -1)
    X = parse_object("F0[3] + T[2,-1]", F)
    assert X == direct_sum_many([rank_one(F, 0, 3), torsion_cyclic(F, 2, -1)])[0]
    assert parse_object("0", F).is_zero()


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_one_atom_parses_to_its_object(field):
    # one atom is its object itself, equal by value to its one-term sum
    labels = _window_labels(4, -3, 3, 4)
    assert len(labels) == 70  # the atoms of the catalog m<=4,n<=4,|a|<=3
    for label in labels:
        X = label_to_object(field, label)
        assert parse_object(str(label), field) == X == direct_sum_many([X])[0]


def test_parse_errors():
    with pytest.raises(RangeError):
        parse_object("F[0,3]", F)
    with pytest.raises(RangeError):
        parse_object("T[0,1]", F)
    with pytest.raises(ParseError) as exc:
        parse_object("F0[1] F1[2]", F)
    assert exc.value.position == 6
    with pytest.raises(ParseError):
        parse_object("G[1]", F)
    with pytest.raises(ParseError):
        parse_object("F0[1] +", F)


def test_roundtrip_print_parse():
    for text in ["F0[1]", "F[2,0] + T[1,1]", "F0[-1] + F0[-1] + F1[2]"]:
        X = parse_object(text, F)
        printed = print_object(X)
        assert parse_object(printed, F) == X
        assert print_object(parse_object(printed, F)) == printed


def test_parse_json_literal():
    literal = json.dumps(
        {
            "field": "Q",
            "torsion": [[2, 1]],
            "lattice": {
                "p": 1,
                "q": 1,
                "gens": [
                    {"jump": 0, "dir": [1, 1]},
                    {"jump": 2, "dir": [1, 0]},
                ],
            },
        }
    )
    X = parse_object(literal, F)
    assert X == direct_sum_many([rank_two(F, 2, 0), torsion_cyclic(F, 2, 1)])[0]


def test_hom_command():
    code, out = run_command(["hom", "F0[1]", "F0[2]"])
    assert code == 0 and out == "dim Hom = 1"
    code, out = run_command(["--format", "json", "hom", "F0[1]", "F1[2]"])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 0 and data["schema"].startswith("zdinfty")


def test_ars_command():
    code, out = run_command(["ars", "F[2,1]"])
    assert code == 0
    assert out == "0 -> F[2,0] -> F[1,0] + F[3,1] -> F[2,1] -> 0"


def test_translate_decompose_filtration_index():
    code, out = run_command(["translate", "F[2,1]"])
    assert (code, out) == (0, "F[2,0]")
    code, out = run_command(["decompose", "F0[0] + T[2,1]"])
    assert (code, out) == (0, "F0[0] + T[2,1]")
    assert run_command(["decompose", '{"torsion": [[2, 1]]}']) == (0, "T[2,1]")
    code, out = run_command(["filtration", "F[2,0]"])
    assert code == 0 and "F1[0]" in out and "F0[-2]" in out
    code, out = run_command(["index", "F[3,1]"])
    assert (code, out) == (0, "singularity index = 3")
    code, out = run_command(["index", "T[1,0]"])
    assert code == 2
    assert run_command(["filtration", "T[2,0]"])[0] == 2


def test_serre_command_small():
    code, out = run_command(["serre", "--catalog", "m<=1,n<=1,|a|<=1"])
    assert code == 0
    assert out.endswith("PASS")
    code, out = run_command(
        ["--format", "json", "serre", "--catalog", "m<=1,n<=1,|a|<=1"]
    )
    data = json.loads(out)
    assert data["passed"] is True and data["pairs"] == len(parse_catalog("m<=1,n<=1,|a|<=1", F)) ** 2


def test_serre_command_full_sweep_example():
    code, out = run_command(["serre", "--catalog", "m<=3,n<=3,|a|<=2"])
    assert code == 0 and out.endswith("PASS")


def test_failed_serre_check_exits_1(monkeypatch):
    # the four pairs (X, X) of the catalog fail; the other twelve pass
    real = cli.serre_check

    def failing(X, Y):
        report = real(X, Y)
        return dataclasses.replace(report, dims_match=False) if X == Y else report

    monkeypatch.setattr(cli, "serre_check", failing)
    argv = ["serre", "--catalog", "m<=1,n<=1,a>=0,a<=0"]
    code, out = run_command(argv)
    lines = out.splitlines()
    assert code == 1 and lines[0] == "serre duality sweep: 16 ordered pairs"
    assert [line.split(":")[0] for line in lines[1:-1]] == [
        f"  FAIL {X} vs {X}" for X in ("F0[0]", "F1[0]", "F[1,0]", "T[1,0]")
    ]
    assert lines[-1] == "FAIL"
    code, out = run_command(["--format", "json"] + argv)
    data = json.loads(out)
    assert code == 1 and data["passed"] is False and data["command"] == "serre"
    assert data["pairs"] == 16 and [f["X"] for f in data["failures"]] == [
        "F0[0]", "F1[0]", "F[1,0]", "T[1,0]"
    ]


def test_quiver_command_formats():
    code, dot = run_command(
        ["quiver", "--m-max", "1", "--a-min", "0", "--a-max", "1", "--n-max", "1"]
    )
    assert code == 0 and dot.startswith("digraph")
    code, out = run_command(
        ["--format", "json", "quiver", "--m-max", "1", "--a-min", "0", "--a-max", "1", "--n-max", "1"]
    )
    data = json.loads(out)
    assert data["schema"] == "zdinfty.quiver/1"
    assert "F[1,1]" in data["nodes"]


def test_quiver_rejects_oversized_window():
    wide = ["quiver", "--m-max", "1", "--a-min", "-1000000000", "--a-max", "1000000000", "--n-max", "1"]
    code, out = run_command(wide)
    assert code == 2 and out.startswith("error: quiver window needs")
    code, out = run_command(["--format", "json"] + wide)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "RangeError"
    tall = ["quiver", "--m-max", "1000000000", "--a-min", "0", "--a-max", "1", "--n-max", "1"]
    code, out = run_command(["--format", "json"] + tall)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "RangeError"


def test_determinism_and_field_flag():
    a1 = run_command(["--seed", "7", "decompose", "F[2,0] + F[2,0]"])
    a2 = run_command(["--seed", "7", "decompose", "F[2,0] + F[2,0]"])
    assert a1 == a2
    code, out = run_command(["--field", "Fp:5", "hom", "F[2,0]", "F[2,0]"])
    assert (code, out) == (0, "dim Hom = 1")
    code, out = run_command(["--field", "Fp:4", "hom", "F0[0]", "F0[0]"])
    assert code == 2


def test_back_to_back_commands_stay_independent():
    # the parser is built once per process; no call may leak into the next
    calls = [
        ["--field", "Fp:5", "--format", "json", "decompose", "F[2,0] + F0[1]"],
        ["decompose", "F[2,0] + F0[1]"],
        ["quiver", "--m-max", "2", "--a-min", "0", "--a-max", "2", "--n-max", "1"],
        ["hom", "F0[0]", "F0[1]"],
        ["--format", "json", "hom", "F0[0]", "F0[1]"],
        ["--field", "Fp:5", "hom", _literal(gen='{"jump": 0, "dir": ["1/5"]}'), "F0[0]"],
        ["hom", _literal(gen='{"jump": 0, "dir": ["1/5"]}'), "F0[0]"],
    ]
    first = [run_command(argv) for argv in calls]
    assert [run_command(argv) for argv in reversed(calls)] == first[::-1]
    assert json.loads(first[0][1])["factors"] == ["F0[1]", "F[2,0]"]
    assert first[1] == (0, "F0[1] + F[2,0]")
    assert first[2][1].startswith("digraph")
    assert first[3] == (0, "dim Hom = 1") and json.loads(first[4][1])["command"] == "hom"
    assert first[5][0] == 2 and first[6] == (0, "dim Hom = 1")


def test_internal_error_exits_3_without_traceback(monkeypatch, capsys):
    def broken(args, field, *objects):
        raise RuntimeError("broken\ncommand")

    monkeypatch.setitem(cli.COMMAND_LINES, "hom", (broken, *cli.COMMAND_LINES["hom"][1:]))
    assert run_command(["hom", "F0[0]", "F0[0]"]) == (
        3,
        "internal error: RuntimeError: broken command",
    )
    assert cli.main(["hom", "F0[0]", "F0[0]"]) == 3
    out, err = capsys.readouterr()
    assert out == "internal error: RuntimeError: broken command\n"
    assert "Traceback" not in out + err


QUIVER = ["quiver", "--m-max", "1", "--a-min", "0", "--a-max", "1", "--n-max", "1"]


def test_usage_errors():
    code, _ = run_command(["hom", "F0[1]"])
    assert code == 2
    code, _ = run_command(["nonsense"])
    assert code == 2
    code, out = run_command(["hom", "F[0,1]", "F0[0]"])
    assert code == 2 and "error" in out
    code, out = run_command(["--field", "Fp:x", "hom", "F0[0]", "F0[0]"])
    assert code == 2 and out.startswith("error:") and "\n" not in out
    # quiver reads no field: the field is checked before any command runs
    assert run_command(["--field", "Fp:4"] + QUIVER) == (
        2, "error: prime field needs a prime modulus, got 4"
    )
    # an empty sweep is bad input, not a PASS
    code, out = run_command(["serre", "--catalog", "|a|<=-1"])
    assert code == 2 and out.startswith("error:") and "\n" not in out
    # so is one past the pair limit, however far: it is counted, not listed
    code, out = run_command(["serre", "--catalog", "m<=10000000000,|a|<=10000000000"])
    assert code == 2 and f"the limit is {cli.MAX_CATALOG_PAIRS} ordered pairs" in out
    assert len(parse_catalog("m<=74,n<=74,a>=-5,a<=4", F)) ** 2 == cli.MAX_CATALOG_PAIRS
    # malformed catalogs, JSON literals and scalars fail where they are parsed
    for argv in [
        ["serre", "--catalog", "m<=x"],
        ["hom", _literal(p=""), "F0[0]"],
        ["hom", _literal(q=""), "F0[0]"],
        ["hom", _literal(gen='{"dir": [1]}'), "F0[0]"],
        ["hom", _literal(gen='{"jump": 0}'), "F0[0]"],
        ["hom", _literal(gen='{"jump": "x", "dir": [1]}'), "F0[0]"],
        ["hom", _literal(p='"p": -1, ', q='"q": 1, '), "F0[0]"],
        ["hom", '{"field": 5}', "F0[0]"],
        ["hom", '{"field": "Fp:561"}', "F0[0]"],
        ["hom", '{"field": "Fp:1000000000000000000000000000057"}', "F0[0]"],
        ["--field", "Fp:318665857834031151167461", "hom", "F0[0]", "F0[0]"],
        ["--field", "Fp:1000000000000000000000000000057", "hom", "F0[0]", "F0[0]"],
        ["hom", '{"torsion": 5}', "F0[0]"],
        ["hom", '{"torsion": [[1]]}', "F0[0]"],
        ["hom", '{"torsion": [[1, 0]', "F0[0]"],
        ["--field", "Fp:5", "hom", _literal(gen='{"jump": 0, "dir": ["1/5"]}'), "F0[0]"],
        ["hom", _literal(gen='{"jump": 0, "dir": ["1/0"]}'), "F0[0]"],
        ["hom", _literal(gen='{"jump": 0, "dir": ["1/2/3"]}'), "F0[0]"],
        # jumps and type counts must be JSON integers: no floats, no booleans
        ["decompose", _literal(gen='{"jump": Infinity, "dir": [1]}')],
        ["decompose", _literal(gen='{"jump": 1e400, "dir": [1]}')],
        ["decompose", _literal(gen='{"jump": 0.5, "dir": [1]}')],
        ["decompose", _literal(gen='{"jump": true, "dir": [1]}')],
        ["decompose", _literal(p='"p": 1e400, ')],
        ["decompose", _literal(p='"p": 1.0, ')],
        ["decompose", _literal(q='"q": false, ')],
        ["decompose", '{"torsion": [[true, 0]]}'],
        # a rank-0 lattice takes no gens, and a direction entry is no boolean
        ["decompose", '{"torsion": [[1, 0]], "lattice": {"p": 0, "q": 0, '
         '"gens": [{"jump": 0, "dir": [1]}]}}'],
        ["decompose", _literal(gen='{"jump": 0, "dir": [true]}')],
        # an atom's arity, the gens list, a catalog clause and a torsion length
        ["hom", "F[1]", "F0[0]"],
        ["decompose", '{"lattice": {"p": 1, "q": 0, "gens": 5}}'],
        ["serre", "--catalog", "x<=1"],
        ["decompose", '{"torsion": [[0, 1]]}'],
        # dir is a list, a lattice an object, and no key repeats
        ["decompose", '{"lattice": {"p": 1, "q": 1, "gens": [{"jump": 0, "dir": "11"}, '
         '{"jump": 2, "dir": "10"}]}}'],
        ["decompose", _literal(gen='{"jump": 0, "dir": {"1": 2}}')],
        ["decompose", '{"torsion": [[2, 1]], "lattice": null}'],
        ["decompose", '{"torsion": [[1, 0]], "torsion": [[2, 0]]}'],
    ]:
        code, out = run_command(argv)
        assert code == 2 and out.startswith("error:") and "\n" not in out, argv
    # a truncated literal reports where the JSON parser stopped
    assert run_command(["hom", '{"torsion": [[1, 0]', "F0[0]"])[1].endswith("(at position 19)")


def test_json_literal_rejects_unknown_keys():
    # each level takes only its own keys: field/torsion/lattice at the top,
    # p/q/gens in the lattice and jump/dir in each gen
    full = ('{"field": "Q", "torsion": [[2, 1]], "lattice": {"p": 1, "q": 0, '
            '"gens": [{"jump": 0, "dir": [1]}]}}')
    assert run_command(["decompose", full]) == (0, "F0[0] + T[2,1]")
    for argv in [
        # a lattice that lost its wrapper is not the zero object
        ["decompose", '{"p": 1, "q": 0, "gens": [{"jump": 0, "dir": [1]}]}'],
        ["decompose", '{"torsion": [], "lattices": {}}'],
        ["decompose", '{"lattice": {"p": 1, "q": 0, "gens": [{"jump": 0, "dir": [1]}], '
         '"torsion": []}}'],
        ["decompose", _literal(gen='{"jump": 0, "dir": [1], "type": 0}')],
    ]:
        code, out = run_command(argv)
        assert code == 2 and out.startswith("error:") and "unknown key" in out, argv
    code, out = run_command(["--format", "json", "decompose", '{"gens": []}'])
    err = json.loads(out)["error"]
    assert code == 2 and err["type"] == "ParseError" and '"gens"' in err["message"]


# every path of the literal's schema, with the Python types its JSON values
# load as, in a literal that is whole; a wrong value put at one path is the
# literal's only fault
_WHOLE = {"field": "Q", "torsion": [[2, 1]],
          "lattice": {"p": 1, "q": 0, "gens": [{"jump": 0, "dir": [1]}]}}
_SCHEMA_PATHS = [
    (("field",), (str,)),
    (("torsion",), (list,)),
    (("torsion", 0), (list,)),
    (("torsion", 0, 0), (int,)),
    (("torsion", 0, 1), (int,)),
    (("lattice",), (dict,)),
    (("lattice", "p"), (int,)),
    (("lattice", "q"), (int,)),
    (("lattice", "gens"), (list,)),
    (("lattice", "gens", 0), (dict,)),
    (("lattice", "gens", 0, "jump"), (int,)),
    (("lattice", "gens", 0, "dir"), (list,)),
    (("lattice", "gens", 0, "dir", 0), (int, str)),
]


def _json_path(keys) -> str:
    return "literal" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)


def _with(keys, edit):
    """``_WHOLE`` with ``edit`` applied to the container at ``keys[:-1]``."""
    data = json.loads(json.dumps(_WHOLE))
    node = data
    for k in keys[:-1]:
        node = node[k]
    edit(node, keys[-1])
    return json.dumps(data)


def _literal_faults():
    """(literal, the message's head, its tail) for each fault of one value or key."""
    for keys, types in _SCHEMA_PATHS:
        for value in [None, True, 1.5, "x", [], {}]:
            if type(value) not in types or keys == ("torsion", 0):  # [] is a list, no pair
                literal = _with(keys, lambda node, k: node.__setitem__(k, value))
                yield pytest.param(literal, f"JSON {_json_path(keys)} must be ",
                                   f", got {json.dumps(value)} (at position 0)",
                                   id=f"{_json_path(keys)}={json.dumps(value)}")
    for keys in [("x",), ("lattice", "x"), ("lattice", "gens", 0, "x")]:
        literal = _with(keys, lambda node, k: node.__setitem__(k, 0))
        yield pytest.param(literal, f'JSON {_json_path(keys[:-1])} has the unknown key "x"',
                           " (at position 0)", id=f"{_json_path(keys[:-1])} unknown")
    for keys in [("lattice", "p"), ("lattice", "q"),
                 ("lattice", "gens", 0, "jump"), ("lattice", "gens", 0, "dir")]:
        literal = _with(keys, lambda node, k: node.pop(k))
        yield pytest.param(literal, f'JSON {_json_path(keys[:-1])} lacks the key "{keys[-1]}"',
                           " (at position 0)", id=f"{_json_path(keys[:-1])} lacks {keys[-1]}")


@pytest.mark.parametrize("literal, head, tail", _literal_faults())
def test_json_literal_errors_name_the_path_and_the_json_value(literal, head, tail):
    # the first value the schema does not take is named by its JSON path and
    # written as JSON: null, true and 1.5, not Python's None, True or 'x'
    code, out = run_command(["--format", "json", "decompose", literal])
    err = json.loads(out)["error"]
    assert code == 2 and err["type"] == "ParseError" and err["position"] == 0
    assert err["message"].startswith(head) and err["message"].endswith(tail)
    assert run_command(["decompose", literal]) == (2, f"error: {err['message']}")


def test_json_error_records(monkeypatch):
    def record(argv):
        code, out = run_command(["--format", "json"] + argv)
        data = json.loads(out)
        assert set(data) == {"schema", "error"} and data["schema"] == "zdinfty.report/1"
        err = data["error"]
        return code, err["type"], err["position"], err["message"]

    assert record(["hom", "F0[1]"])[:3] == (2, "UsageError", None)
    assert record(["hom", "F[0,1]", "F0[0]"])[:3] == (2, "RangeError", None)
    assert record(["hom", '{"torsion": [[1, 0]', "F0[0]"])[:3] == (2, "ParseError", 19)
    assert record(["index", "T[1,0]"])[:3] == (2, "NotLatticeMorphism", None)
    assert record(["filtration", "T[2,0]"])[:3] == (2, "NotLatticeMorphism", None)
    assert record(["--field", "Fp:4"] + QUIVER) == (
        2, "ZdinftyError", None, "prime field needs a prime modulus, got 4"
    )
    code, out = run_command(["--format=json", "nonsense"])
    assert code == 2 and json.loads(out)["error"]["type"] == "UsageError"
    # every spelling of --format json the parser accepts, and only before the
    # command, gives the record; a later option error does not hide it
    for spelling in (["--form", "json"], ["--fo=json"], ["--seed", "x", "--fo", "json"],
                     ["--form", "text", "--form", "json"], ["--format", "json", "--seed=1.5"]):
        code, out = run_command(spelling + ["nonsense"])
        assert code == 2 and json.loads(out)["error"]["type"] == "UsageError", spelling
    code, out = run_command(["--form", "json", "ars", "F[1,0]"])
    assert code == 0 and json.loads(out)["command"] == "ars"
    assert run_command(["--fo", "json", "--fo", "text", "nonsense"]) == (2, "")
    assert run_command(["--fo", "json", "--fo", "xml", "nonsense"]) == (2, "")
    assert run_command(["ars", "F[1,0]", "--format", "json"]) == (2, "")
    assert run_command(["--f=json", "ars", "F[1,0]"]) == (2, "")  # ambiguous: not --format

    def broken(args, field, *objects):
        raise RuntimeError("broken\ncommand")

    monkeypatch.setitem(cli.COMMAND_LINES, "hom", (broken, *cli.COMMAND_LINES["hom"][1:]))
    assert record(["hom", "F0[0]", "F0[0]"]) == (3, "RuntimeError", None, "broken command")
    # text output is unchanged
    assert run_command(["hom", "F0[0]", "F0[0]"]) == (
        3, "internal error: RuntimeError: broken command"
    )
    assert run_command(["hom", "F0[1]"]) == (2, "")


def _atom():
    small = st.integers(min_value=-4, max_value=4)
    size = st.integers(min_value=1, max_value=6)
    return st.one_of(
        st.builds("F0[{}]".format, small),
        st.builds("F1[{}]".format, small),
        st.builds("F[{},{}]".format, size, small),
        st.builds("T[{},{}]".format, size, small),
    )


SUMS = st.lists(_atom(), min_size=1, max_size=3).map(" + ".join)
MALFORMED = [
    "0", "", "+", "F[0,1]", "T[-1,2]", "F0[", "T[1,", "F[2,0", "G[1]", "F0[x]",
    "F0[1] F1[2]", "T[1,0] +", "{", '{"torsion": 5}', '{"lattice": {"p": 1}}',
]
# random text leaves out digits, so that no parameter grows large
OBJECTS = st.one_of(
    SUMS, SUMS, SUMS, SUMS, st.sampled_from(MALFORMED), st.text(alphabet="FT[],+- {}:", max_size=6)
)
SMALL = st.integers(min_value=-2, max_value=3).map(str)


@st.composite
def command_lines(draw):
    argv = []
    for flag, values in (("--field", ["Q", "Q", "Fp:2", "Fp:3", "Fp:4", "Fp:x"]),
                         ("--format", ["text", "json", "json", "json", "dot", "yaml"])):
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    command = draw(st.sampled_from(["hom", "ext", "euler", "translate", "decompose",
                                    "filtration", "ars", "index", "serre", "quiver", "bogus"]))
    argv.append(command)
    if command in ("hom", "ext", "euler"):
        argv += [draw(OBJECTS) for _ in range(draw(st.sampled_from([2, 2, 2, 2, 1, 3])))]
    elif command == "serre":
        clause = draw(st.sampled_from(["m<=", "n<=", "|a|<=", "|a|<=", "q<="]))
        argv += ["--catalog", clause + draw(st.sampled_from(["0", "1", "1", "-1", "x"]))]
    elif command == "quiver":
        for flag in ("--m-max", "--a-min", "--a-max", "--n-max"):
            if draw(st.integers(min_value=0, max_value=9)):
                argv += [flag, draw(SMALL)]
    elif command != "bogus":
        argv += [draw(OBJECTS) for _ in range(draw(st.sampled_from([1, 1, 1, 1, 2])))]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(command_lines())
def test_fuzz_command_lines(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_command(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in out + err.getvalue(), argv
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        assert "schema" in json.loads(out), argv


def _literal(gen='{"jump": 0, "dir": [1]}', p='"p": 1, ', q='"q": 0, '):
    """A rank-one JSON literal; each argument can drop or replace a field."""
    return '{"lattice": {' + p + q + '"gens": [' + gen + "]}}"


@pytest.mark.parametrize(
    "argv",
    [
        ["hom", "F0[0]", "F0[1]"],
        ["ext", "F0[1]", "F1[0]"],
        ["euler", "F[2,0]", "T[2,1]"],
        ["serre", "--catalog", "m<=1,n<=1,|a|<=1"],
        ["translate", "F[2,1]"],
        ["decompose", "F0[0] + F0[0]"],
        ["filtration", "F[2,0]"],
        ["ars", "F0[0]"],
        ["index", "F[2,0]"],
        ["selftest"],
    ],
)
def test_json_reports_carry_schema(argv):
    code, out = run_command(["--format", "json"] + argv)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "zdinfty.report/1"
    assert data["command"] == argv[0]


def test_selftest_runs():
    code, out = run_command(["selftest"])
    assert code == 0
    assert out.splitlines()[-1] == "selftest: PASS"


def test_failed_selftest_exits_1(monkeypatch):
    real = cli.hom_space

    def off_by_one(X, Y):
        space = real(X, Y)
        return dataclasses.replace(space, dim=space.dim + 1)

    monkeypatch.setattr(cli, "hom_space", off_by_one)
    code, out = run_command(["selftest"])
    lines = out.splitlines()
    assert code == 1 and lines[-1] == "selftest: FAIL"
    assert "selftest rank-one tables: FAIL" in lines
    code, out = run_command(["--format", "json", "selftest"])
    data = json.loads(out)
    assert code == 1 and data["passed"] is False and data["report"][-1] == "selftest: FAIL"


def _fails_at_f0_0(report):
    """The sweep's one pair (F0[0], F0[0]) fails."""
    if print_object(report.X) == print_object(report.Y) == "F0[0]":
        return dataclasses.replace(report, dims_match=False)
    return report


@pytest.mark.parametrize(
    "name, wrong, check",
    [
        ("decompose", lambda dec: dataclasses.replace(dec, pieces=dec.pieces[1:]), "krull-schmidt"),
        ("serre_check", _fails_at_f0_0, "serre duality"),
    ],
    ids=["dropped-factor", "one-failed-pair"],
)
def test_selftest_names_the_failed_check(name, wrong, check, monkeypatch):
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args: wrong(real(*args)))
    code, out = run_command(["selftest"])
    lines = out.splitlines()
    assert code == 1 and lines[-1] == "selftest: FAIL"
    assert f"selftest {check}: FAIL" in lines


def test_selftest_default_sums_cover_every_kind(monkeypatch):
    # the ten sums of the default seed are the only direct sums selftest builds
    real, sums = cli.direct_sum_many, []

    def spy(objs):
        sums.append(list(objs))
        return real(objs)

    monkeypatch.setattr(cli, "direct_sum_many", spy)
    assert run_command(["selftest"])[0] == 0
    assert len(sums) == 10
    kinds = {label.kind for objs in sums for X in objs for label in cli.decompose(X).factors}
    assert kinds == {"rank_one", "rank_two", "wing"}


@pytest.mark.parametrize(
    "argv, names",
    [
        (["selftest"], {"serre_check", "hom_space"}),
        (["serre", "--catalog", "m<=1,n<=1,a>=0,a<=0"], {"serre_check"}),
    ],
    ids=["selftest", "serre-catalog"],
)
def test_field_option_reaches_the_sweeps(argv, names, monkeypatch):
    # the golden digests are the same over every field, so a handler that
    # built its objects over Q would still pass them; the spies see the field
    argv = ["--field", "Fp:3", *argv]
    want = run_command(argv)
    seen = {}
    for name in ("serre_check", "hom_space"):
        def spy(X, Y, name=name, real=getattr(cli, name)):
            seen.setdefault(name, set()).update((X.field, Y.field))
            return real(X, Y)

        monkeypatch.setattr(cli, name, spy)
    assert run_command(argv) == want
    assert seen == dict.fromkeys(names, {GF(3)})


def test_closed_pipe_ends_quietly():
    """A reader that stops early (``| head -c 200``) gets no traceback.

    The window's JSON (about 140 kB) overfills the pipe, so the CLI is still
    writing when the read end closes."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "zdinfty.cli", "--field", "Fp:2", "--format", "json",
            "quiver", "--m-max", "6", "--a-min", "-80", "--a-max", "80", "--n-max", "4"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(200)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert head.startswith(b'{"arrows"')
    assert "Traceback" not in err, err
