"""Replay the mutants of ``tests/mutants.py``: the suite must kill each.

Each row is applied to a temporary copy of ``src/``, with ``README.md``
beside it as in the repository (``tests/test_surface.py`` reads it two
levels above ``zdinfty.__file__``), and pytest runs the row's tests on the
copy in a subprocess, stopping at the first failure.  Rows replay two at a
time.  A row is killed only when pytest exits 1, some test failed: a mutant
that breaks collection or the import exits otherwise and is not counted.  A
row whose ``old`` text no longer occurs exactly once in its file is stale
and fails as such.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from mutants import MUTANTS

ROOT = pathlib.Path(__file__).resolve().parent.parent
PAIRS = [MUTANTS[i:i + 2] for i in range(0, len(MUTANTS), 2)]


def mutated(root, row) -> str:
    """The text of the row's file with its ``old`` replaced by its ``new``."""
    name, path, old, new, _ = row
    source = (root / path).read_text()
    count = source.count(old)
    assert count == 1, f"stale row {name}: its old text occurs {count} times in {path}"
    return source.replace(old, new)


def start(root, row, text, tmp) -> subprocess.Popen:
    """Start pytest on the row's tests against a copy of ``root/src``, made
    under ``tmp``, with the row's file holding ``text``."""
    shutil.copytree(root / "src", tmp / "src")
    shutil.copy(root / "README.md", tmp / "README.md")
    (tmp / row[1]).write_text(text)
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *row[4]]
    return subprocess.Popen(
        argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )


def survivors(root, rows, tmp) -> list:
    """The rows of ``rows``, replayed side by side, whose pytest did not
    exit 1, each with its exit code and the tail of its output.  Every row
    is checked for staleness before any starts."""
    texts = [mutated(root, row) for row in rows]
    procs = []
    try:
        for k, (row, text) in enumerate(zip(rows, texts)):
            procs.append(start(root, row, text, tmp / str(k)))
        outs = [proc.communicate(timeout=120)[0] for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    return [
        (row[0], proc.returncode, out[-2000:])
        for row, proc, out in zip(rows, procs, outs)
        if proc.returncode != 1
    ]


def test_rows_name_src_files_and_tests():
    names = [row[0] for row in MUTANTS]
    assert len(names) == len(set(names)) >= 15
    for row in MUTANTS:
        name, path, old, new, tests = row
        assert path.startswith("src/") and old != new and tests, name
        mutated(ROOT, row)


@pytest.mark.parametrize("rows", PAIRS, ids=["+".join(row[0] for row in rows) for rows in PAIRS])
def test_mutants_are_killed(rows, tmp_path):
    assert survivors(ROOT, rows, tmp_path) == []
