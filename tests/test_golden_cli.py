"""Golden CLI outputs: exit code and stdout must stay byte-identical.

``tests/golden_cli.json`` holds, for a fixed list of invocations, the sha256
of ``"<exit code>\\n" + stdout`` (stdout exactly as ``zdinfty.cli.main``
prints it).  A refactor that changes no behaviour leaves every digest alone.

When a change of output is intended, regenerate the file and commit it with
the change, saying in the commit message which outputs moved and why:

    PYTHONPATH=src python tests/test_golden_cli.py --regenerate

Adding or removing an invocation in ``invocations()`` also needs a
regeneration; the test checks that the file lists exactly these invocations.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import sys

import pytest

from zdinfty.cli import run_command

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")
FIELDS = ("Q", "Fp:2", "Fp:5")

# indecomposables (for ars) and sums mixing torsion and lattice summands
INDECOMPOSABLES = (
    "F0[0]", "F1[2]", "F[1,0]", "F[2,1]", "F[3,-1]",
    "T[1,0]", "T[2,-1]", "T[3,1]", "T[8,0]", "T[16,2]",
)
SUMS = (
    "T[3,0] + T[3,0] + T[5,1]",
    "T[1,0] + T[2,0] + T[4,-2]",
    "F[2,0] + F[2,0]",
    "F0[0] + F1[1] + F[1,-1]",
    "F[2,1] + T[3,0]",
    "F0[0] + T[2,-1] + T[1,1]",
    "F[3,0] + F1[-1] + T[2,2] + T[4,0]",
    "F[1,0] + F[2,-1] + T[3,-1] + T[3,-1]",
    "F1[0] + T[6,1]",
    '{"torsion": [[2, 1]], "lattice": {"p": 1, "q": 1,'
    ' "gens": [{"jump": 0, "dir": [1, 1]}, {"jump": 2, "dir": ["1", "0"]}]}}',
    '{"torsion": [[3, 0], [1, -1]], "lattice": {"p": 2, "q": 1,'
    ' "gens": [{"jump": -1, "dir": [1, 0, 1]}, {"jump": 0, "dir": [0, 1, 1]},'
    ' {"jump": 2, "dir": [1, 0, 0]}]}}',
    "T[2,0] + F0[1]",
)
# filtration and index inputs: the torsion-free sums, and F[2,0] + F0[-1] +
# F1[1] conjugated by integer matrices invertible over every field
TORSION_FREE = (
    "F[2,0] + F[2,0]",
    "F0[0] + F1[1] + F[1,-1]",
    '{"lattice": {"p": 2, "q": 2, "gens": [{"jump": -1, "dir": [0, 0, 1, 1]},'
    ' {"jump": 0, "dir": [1, 1, 2, 1]}, {"jump": 1, "dir": [1, 2, 0, 0]},'
    ' {"jump": 2, "dir": [0, 0, 2, 1]}]}}',
)


def invocations() -> list:
    out = [
        ["--field", "Fp:3", "selftest"],
        ["--field", "Fp:2305843009213693951", "selftest"],
        ["--field", "Fp:3", "serre", "--catalog", "m<=4,n<=4,|a|<=3"],
        ["--field", "Fp:3", "--format", "json", "quiver",
         "--m-max", "6", "--a-min", "-3", "--a-max", "3", "--n-max", "4"],
    ]
    for field in FIELDS:
        g = ["--field", field]
        for fmt in ("text", "json"):
            f = g + ["--format", fmt]
            out.append(f + ["serre"])
            out.append(f + ["selftest"])
            for X in INDECOMPOSABLES:
                out.append(f + ["ars", X])
            for X in SUMS:
                out.append(f + ["decompose", X])
                out.append(f + ["translate", X])
            for X in TORSION_FREE:
                out.append(f + ["filtration", X])
                out.append(f + ["index", X])
            for X, Y in zip(SUMS, SUMS[1:] + SUMS[:1]):
                out.append(f + ["hom", X, Y])
                out.append(f + ["ext", X, Y])
                out.append(f + ["euler", Y, X])
            # input errors exit 2 with the same message
            out.append(f + ["decompose", "T[0,1]"])
            out.append(f + ["hom", "F0[1] F1[2]", "F0[0]"])
            out.append(f + ["serre", "--catalog", "|a|<=-1"])
        out.append(g + ["serre", "--catalog", "m<=4,n<=4,|a|<=3"])
        for fmt in ("dot", "json"):
            out.append(g + ["--format", fmt, "quiver",
                            "--m-max", "6", "--a-min", "-3", "--a-max", "3", "--n-max", "4"])
    return out


def digest(argv) -> str:
    code, output = run_command(argv)
    stdout = output + "\n" if output else ""
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()


@functools.cache
def _golden() -> dict:
    entries = json.loads(GOLDEN.read_text())["invocations"]
    return {json.dumps(e["argv"]): e["sha256"] for e in entries}


def test_golden_file_lists_the_invocations():
    assert list(_golden()) == [json.dumps(argv) for argv in invocations()]


@pytest.mark.parametrize("argv", invocations(), ids=lambda argv: " ".join(argv)[:80])
def test_golden_cli(argv):
    assert digest(argv) == _golden().get(json.dumps(argv)), argv


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_cli.py --regenerate")
    entries = [{"argv": argv, "sha256": digest(argv)} for argv in invocations()]
    lines = ",\n".join(json.dumps(e) for e in entries)
    GOLDEN.write_text('{"invocations": [\n' + lines + "\n]}\n")
    print(f"wrote {len(entries)} digests to {GOLDEN}")
