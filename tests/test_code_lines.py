"""``tools/code_lines.py`` counts code lines: no docstring, comment or blank line."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

FIXTURE = '''"""A module docstring,
on two lines."""

# a comment
x = 1  # a trailing comment


def f(
    a,
):
    """A function docstring."""
    return (a +
            1)


class C:
    """A class docstring."""

    y = """a string that is no docstring"""
'''


def test_counts_code_lines_only():
    # x = 1; def f(, a, ), return (a +, 1); class C:, y = ...
    assert code_lines.code_lines(FIXTURE) == 8
