"""The command line as argparse read it: the reference for ``cli``'s table.

``build_parser`` is the argparse parser ``zdinfty.cli`` used before it read
its command line from one table.  ``outcome(argv)`` runs it and returns what
the line meant, in a form ``tests/test_cli_parse.py`` compares with the
table parser's:

- ``("ok", values)``: the line is accepted; ``values`` is the namespace's
  dict (global options, ``command`` and the command's own names);
- ``("help", prog)``: ``-h``/``--help`` of the parser ``prog`` ran;
- ``("error", prog, message)``: the line is rejected (exit 2); ``prog`` is
  the parser whose usage is printed, ``message`` the text after ``error:``.
"""

from __future__ import annotations

import argparse
import functools

DEFAULT_SEED = 2024


class OracleUsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class OracleHelp(Exception):
    def __init__(self, parser: argparse.ArgumentParser):
        super().__init__(parser.prog)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises instead of printing and exiting."""

    def error(self, message):
        raise OracleUsageError(self, message)

    def print_help(self, file=None):
        raise OracleHelp(self)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
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
    parser.commands = sub.choices  # command name -> its parser
    return parser


def outcome(argv) -> tuple:
    """What argparse made of ``argv``: accepted values, help, or rejection."""
    try:
        args = build_parser().parse_args(list(argv))
    except OracleUsageError as e:
        return ("error", e.parser.prog, str(e))
    except OracleHelp as e:
        return ("help", e.parser.prog)
    return ("ok", vars(args))
