"""The CLI's command-line table against argparse, its reference.

``zdinfty.cli.parse_command_line`` reads a line from ``GLOBAL_OPTIONS`` and
``COMMAND_LINES``; ``tests/oracle_cli.py`` keeps the argparse parser it
replaced.  Both run on the argv of the CLI tests and on seeded generated
lines, valid and malformed, and must make the same decision (accept, help or
reject) with the same values.  On the Python whose argparse the table was
checked against (``CHECKED``) the rejection message and the parser whose usage
is printed must match too, and so must the help texts up to line breaks.

Two kinds of line are not compared:

- where the table deliberately reads ``--`` differently from argparse 3.11:
  only the first ``--`` of a command is the separator, so a later ``--`` and
  an ``--opt=--`` value are kept as values, where 3.11 dropped them and left
  an empty list (``PINNED`` fixes what the table makes of these);
- on other Pythons, lines whose reading argparse itself changed across 3.10 to
  3.13: ``--`` handling, ambiguous prefixes (checked when the token is read,
  or when it is consumed), ``-h`` with a tail, and values like ``-1e5``.
"""

import argparse
import ast
import contextlib
import importlib
import io
import pathlib
import random
import re
import sys

import pytest
from hypothesis import given, settings

import oracle_cli
import test_cli
import test_cli_expect
import test_golden_cli
from zdinfty import cli

CHECKED = (3, 11)
ON_CHECKED = sys.version_info[:2] == CHECKED
LINES = 2400


def parsed(argv) -> tuple:
    """What the table made of ``argv``, in ``oracle_cli.outcome``'s form."""
    try:
        ns = cli.parse_command_line(argv)
    except cli.UsageError as e:
        return ("error", e.level.prog, str(e))
    except cli._Help as e:
        return ("help", e.level.prog)
    return ("ok", vars(ns))


def _deviates(argv) -> bool:
    """A line where a '--' that is not the separator meets argparse 3.11."""
    return argv.count("--") > 1 or any(t.endswith("=--") for t in argv)


_FLAGS = [level.flags for level in (cli.TOP, *cli.LEVELS.values())]


def _version_sensitive(argv) -> bool:
    for t in argv:
        name = t.partition("=")[0]
        if t == "--" or (t.startswith("-h") and t != "-h"):
            return True
        if t.startswith("--") and any(sum(f.startswith(name) for f in flags) > 1 for flags in _FLAGS):
            return True
        if re.match(r"-\.?\d", t) and not re.fullmatch(r"-\d+", t):
            return True
    return False


def _decision(outcome: tuple) -> tuple:
    return outcome[:1] if outcome[0] == "error" else outcome


def _same(argv) -> bool:
    """Compare the table with argparse on one line; False if not compared."""
    if _deviates(argv) or (not ON_CHECKED and _version_sensitive(argv)):
        return False
    want, got = oracle_cli.outcome(argv), parsed(argv)
    if not ON_CHECKED:  # messages may be worded otherwise there
        want, got = _decision(want), _decision(got)
    assert got == want, argv
    return True


# ---------------------------------------------------------------------------
# the argv of the CLI tests


def _test_cli_argv() -> list:
    """Every list of strings that tests/test_cli.py writes, with the
    ``--format json`` prefix its ``record`` helper adds."""
    tree = ast.parse(pathlib.Path(test_cli.__file__).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.List, ast.BinOp)):
            try:
                value = eval(compile(ast.Expression(node), "test_cli", "eval"), vars(test_cli))
            except Exception:
                continue
            if isinstance(value, list) and value and all(isinstance(v, str) for v in value):
                found += [value, ["--format", "json"] + value]
    return found


def test_cli_test_lines_match_argparse():
    corpus = [argv for argv in test_golden_cli.invocations()]
    corpus += [row[1] for row in test_cli_expect.ROWS]
    corpus += _test_cli_argv()
    assert len(corpus) > 600
    compared = sum(_same(argv) for argv in corpus)
    assert compared > 0.9 * len(corpus)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(test_cli.command_lines())
def test_fuzzed_cli_lines_match_argparse(argv):
    _same(argv)


# ---------------------------------------------------------------------------
# generated lines

OBJECTS = ["F[1,0]", "T[2,1]", "F0[0]", "F[2,-1] + T[1,0]", "", "-", "-3", "-x", "a b"]
VALUES = {
    "field": ["Q", "Fp:5", "Fp:x", "-3"],
    "format": ["json", "json", "text", "dot", "xml", "JSON"],
    "seed": ["3", "-3", "0", "x", "1.5", " 7", "3_0"],
    "catalog": ["m<=1", "|a|<=1", "", "-1"],
    "bound": ["1", "0", "-3", "2", "x", "-1.5", "+2"],
}
SPELLINGS = {
    "--field": ["--field", "--fi", "--fie", "--field"],
    "--format": ["--format", "--fo", "--form", "--format"],
    "--seed": ["--seed", "--s", "--se", "--seed"],
    "--catalog": ["--catalog", "--c", "--cat", "--catalog"],
    "--m-max": ["--m-max", "--m", "--m-m", "--m-max"],
    "--a-min": ["--a-min", "--a-mi", "--a-min", "--a-min"],
    "--a-max": ["--a-max", "--a-ma", "--a-max", "--a-max"],
    "--n-max": ["--n-max", "--n", "--n-max", "--n-max"],
}
# tokens a malformed line gains: ambiguous prefixes, help, unknown options,
# stray values and separators
NOISE = ["--f", "--f=json", "--a", "--a-m", "-h", "--help", "--he", "-hh", "-hx", "--bogus",
         "--", "--", "-", "ars", "json", "3", "-3", "F0[0]", "--field", "--seed=", "--format=",
         "--help=x", "--=x", "---"]
COMMAND_NAMES = list(cli.COMMAND_LINES) + ["nonsense", "ar"]


def _option(rng, flag, values) -> list:
    spelling = rng.choice(SPELLINGS[flag])
    value = rng.choice(values)
    form = rng.random()
    if form < 0.45:
        return [spelling, value]
    if form < 0.9:
        return [f"{spelling}={value}"]
    return [spelling]  # its value is missing


def _line(rng) -> list:
    argv = []
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        flag = rng.choice(["--field", "--format", "--format", "--seed"])
        argv += _option(rng, flag, VALUES[flag[2:]])
    command = rng.choice(COMMAND_NAMES[:-2] * 4 + COMMAND_NAMES)
    argv.append(command)
    _, positionals, options = cli.COMMAND_LINES.get(command, (None, (), ()))
    count = len(positionals) + rng.choice([0] * 8 + [-1, 1])
    words = [[rng.choice(OBJECTS[:4] * 3 + OBJECTS)] for _ in range(max(count, 0))]
    for opt in options:
        if rng.random() < 0.9:
            words.append(_option(rng, opt.flag, VALUES["bound" if opt.type is int else "catalog"]))
    if rng.random() < 0.2:
        rng.shuffle(words)
    if words and rng.random() < 0.15:  # '--' before the positionals
        words.insert(rng.randrange(len(words) + 1), ["--"])
    argv += [t for word in words for t in word]
    for _ in range(rng.choice([0] * 6 + [1, 1, 2])):
        edit = rng.random()
        i = rng.randrange(len(argv) + 1)
        if edit < 0.6:
            argv.insert(i, rng.choice(NOISE))
        elif edit < 0.8 and argv:
            del argv[min(i, len(argv) - 1)]
        elif argv:
            argv.insert(i, argv[min(i, len(argv) - 1)])
    return argv


def test_generated_lines_match_argparse():
    rng = random.Random(2024)
    lines = [_line(rng) for _ in range(LINES)]
    kinds = {"ok": 0, "help": 0, "error": 0}
    compared = 0
    for argv in lines:
        if _same(argv):
            compared += 1
            kinds[oracle_cli.outcome(argv)[0]] += 1
    assert compared >= (2000 if ON_CHECKED else 1000)
    assert kinds["ok"] >= 0.25 * compared and kinds["error"] >= 0.25 * compared and kinds["help"]


# the lines where the table differs from argparse 3.11 on purpose, and what
# it makes of them: a '--' that is not the separator is a value
PINNED = [
    (["hom", "A", "--", "--"], ("ok", {"A": "A", "B": "--"})),
    (["hom", "--", "A", "--"], ("ok", {"A": "A", "B": "--"})),
    (["hom", "--", "--", "B"], ("ok", {"A": "--", "B": "B"})),
    (["--field=--", "ars", "X"], ("ok", {"field": "--", "A": "X"})),
    (["--seed=--", "selftest"], ("error", "zdinfty", "argument --seed: invalid int value: '--'")),
    (["--format=--", "ars", "X"], (
        "error", "zdinfty", "argument --format: invalid choice: '--' (choose from 'text', 'json', 'dot')")),
    (["serre", "--catalog=--"], ("ok", {"catalog": "--"})),
    (["ars", "--", "--", "--"], ("error", "zdinfty", "unrecognized arguments: --")),
]


@pytest.mark.parametrize("argv, want", PINNED, ids=[" ".join(p[0]) for p in PINNED])
def test_pinned_lines(argv, want):
    got = parsed(argv)
    if want[0] == "ok":
        assert got[0] == "ok" and want[1].items() <= got[1].items(), argv
    else:
        assert got == want, argv


# ---------------------------------------------------------------------------
# help and usage from the same table, no argparse, the installed script


@pytest.mark.skipif(not ON_CHECKED, reason="argparse's help layout is checked on one Python")
def test_help_matches_argparse_up_to_line_breaks(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parser = oracle_cli.build_parser()
    subparsers = parser.commands
    for level, reference in [(cli.TOP, parser)] + [(cli.LEVELS[n], p) for n, p in subparsers.items()]:
        assert cli._help(level).split() == reference.format_help().split(), level.prog
        assert cli._usage(level).split() == reference.format_usage().split(), level.prog
    # only the quiver usage breaks its line elsewhere: before an option, not
    # between an option and its value
    assert cli._help(cli.TOP) + "\n" == parser.format_help()
    assert "--n-max\n" in subparsers["quiver"].format_usage()
    assert "--n-max N_MAX" in cli._usage(cli.LEVELS["quiver"])


def test_rejection_prints_the_usage_of_its_level():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.run_command(["quiver", "--m-max", "1"]) == (2, "")
    assert err.getvalue() == (
        "usage: zdinfty quiver [-h] --m-max M_MAX --a-min A_MIN --a-max A_MAX\n"
        "                      --n-max N_MAX\n"
        "zdinfty quiver: error: the following arguments are required: --a-min, --a-max, --n-max\n"
    )


def test_no_argparse_in_the_cli(monkeypatch):
    """ars, quiver, hom and a usage error never reach argparse."""

    def refuse(*args, **kwargs):
        raise AssertionError("argparse ran")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    code, out = cli.run_command(["--field", "Q", "--format", "json", "ars", "T[3,0]"])
    assert code == 0 and '"right": "T[3,0]"' in out
    code, out = cli.run_command(["--fo=json", "quiver", "--m-max", "1", "--a-min", "-1",
                                 "--a-max", "0", "--n-max", "1"])
    assert code == 0 and '"schema": "zdinfty.quiver/1"' in out
    assert cli.run_command(["hom", "F0[1]", "F0[2]"]) == (0, "dim Hom = 1")
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.run_command(["--form", "json", "hom", "F0[1]"])[0] == 2
    src = pathlib.Path(cli.__file__).parent
    assert not [p.name for p in src.glob("*.py") if re.search(r"^\s*(import|from) argparse", p.read_text(), re.M)]


def test_console_entry_point(capsys):
    """The script pyproject.toml installs resolves to cli.main, whose --help
    prints the usage."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"zdinfty": "zdinfty.cli:main"}
    module, _, name = scripts["zdinfty"].partition(":")
    main = getattr(importlib.import_module(module), name)
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: zdinfty [-h] [--field FIELD]") and out == cli._help(cli.TOP) + "\n"
