"""The CLI's exact outputs, run the way a user runs them.

Each row is ``(name, argv, exit_code, stdout)``: ``python -m zdinfty.cli
*argv``, with ``PYTHONPATH=src``, must exit with ``exit_code`` and print
exactly ``stdout`` and one newline, within 10 s, or within the tighter
limit ``LIMITS`` gives the row.  The rows are the paper's results as
one-line expectations: the almost split sequences and their middles, the
Krull-Schmidt factors, Hom/Ext/Euler counts, and input errors.

Add a row for a short output worth reading in the source; add an invocation
to ``tests/test_golden_cli.py`` for a long output, such as a sweep or a
quiver, that only has to stay byte-identical.
"""

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from zdinfty.fields import QQ

from oracle_decomp import conjugated_sum

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# a lattice over Q with non-integral coordinates
NON_INTEGRAL = (
    '{"lattice": {"p": 2, "q": 1, "gens": [{"jump": 0, "dir": ["1/2", "2/3", 1]},'
    ' {"jump": 1, "dir": [1, "-3/4", 0]}, {"jump": 3, "dir": [0, 1, 0]}]}}'
)
# a non-split frame with torsion; its lattice splits differently over F_5 and F_2
FRAME = (
    '{"torsion": [[2, 1], [1, 0]], "lattice": {"p": 2, "q": 2, "gens":'
    ' [{"jump": 0, "dir": [1, 2, 1, 1]}, {"jump": 1, "dir": [0, 1, 3, 1]},'
    ' {"jump": 2, "dir": [1, 0, 0, 2]}, {"jump": 3, "dir": [0, 0, 1, 0]}]}}'
)


def _literal(X) -> str:
    """The JSON literal of an object over Q: its torsion summands and the
    adapted generators of its lattice."""
    gens = [{"jump": e, "dir": list(map(str, v))} for e, v in X.lattice.generators()]
    lattice = {"p": X.p, "q": X.q, "gens": gens}
    return json.dumps({"torsion": [list(t) for t in X.torsion.summands], "lattice": lattice})


# 64 rank-two atoms F[1 + i % 3, i % 3], and C_16: sums of 16 rank-two, 2 or
# 3 torsion and 1 or 2 rank-one summands, their lattices conjugated (ranks 33
# and 34); counted through their factors, each pair takes well under a second
L64 = " + ".join(f"F[{1 + i % 3},{i % 3}]" for i in range(64))
C16 = [_literal(conjugated_sum(QQ, random.Random(seed), shape)[0])
       for seed, shape in ((16, (16, 2, 1)), (1016, (16, 3, 2)))]

# the help texts, which the command-line table prints for -h/--help
HELP = """\
usage: zdinfty [-h] [--field FIELD] [--format {text,json,dot}] [--seed SEED]
               {hom,ext,euler,serre,translate,decompose,filtration,ars,index,quiver,selftest}
               ...

exact Hom/Ext, Serre duality and AR quivers for typed graded lattices

positional arguments:
  {hom,ext,euler,serre,translate,decompose,filtration,ars,index,quiver,selftest}

options:
  -h, --help            show this help message and exit
  --field FIELD         Q or Fp:<prime>
  --format {text,json,dot}
  --seed SEED"""
ARS_HELP = """\
usage: zdinfty ars [-h] A

positional arguments:
  A

options:
  -h, --help  show this help message and exit"""

ROWS = [
    ("ars over Q prints the almost split sequence",
     ["--field", "Q", "ars", "F[3,0]"], 0,
     "0 -> F[3,-1] -> F[2,-1] + F[4,0] -> F[3,0] -> 0"),
    ("ars over F_3 builds a torsion extension middle",
     ["--field", "Fp:3", "ars", "T[3,1]"], 0,
     "0 -> T[3,0] -> T[2,0] + T[4,1] -> T[3,1] -> 0"),
    ("ars over Q builds a torsion extension middle",
     ["--field", "Q", "ars", "T[3,1]"], 0,
     "0 -> T[3,0] -> T[2,0] + T[4,1] -> T[3,1] -> 0"),
    ("ars over F_2 prints a swept torsion middle as JSON",
     ["--field", "Fp:2", "--format", "json", "ars", "T[4,2]"], 0,
     '{"command": "ars", "left": "T[4,1]", "middle": ["T[3,1]", "T[5,2]"],'
     ' "right": "T[4,2]", "schema": "zdinfty.report/1"}'),
    ("ars under JSON rejects a decomposable object with exit 2",
     ["--format", "json", "ars", "F0[0] + F1[0]"], 2,
     '{"error": {"message": "almost split sequences end in indecomposables",'
     ' "position": null, "type": "NotIndecomposable"}, "schema": "zdinfty.report/1"}'),
    ("ars builds the middle of a million-step wing at its event degrees only",
     ["ars", "T[1000000,0]"], 0,
     "0 -> T[1000000,-1] -> T[999999,-1] + T[1000001,0] -> T[1000000,0] -> 0"),
    ("decompose over Q reads non-integral coordinates",
     ["--field", "Q", "decompose", NON_INTEGRAL], 0,
     "F0[-1] + F[3,0]"),
    ("filtration over Q reads the same non-integral coordinates",
     ["--field", "Q", "filtration", NON_INTEGRAL], 0,
     "factors (bottom to top): F0[-3], F0[-1], F1[0]"),
    ("filtration over F_3 reads the factors off one canonical form",
     ["--field", "Fp:3", "filtration", "F[2,0] + F[1,1] + F0[2] + F1[-1]"], 0,
     "factors (bottom to top): F0[-2], F0[0], F0[2], F1[0], F1[1], F1[-1]"),
    ("ars over F_2 builds a torsion middle from a rank-zero window map",
     ["--field", "Fp:2", "ars", "T[1,0]"], 0,
     "0 -> T[1,-1] -> T[2,0] -> T[1,0] -> 0"),
    ("ars over F_2 builds a three-factor lattice middle",
     ["--field", "Fp:2", "ars", "F[1,0]"], 0,
     "0 -> F[1,-1] -> F0[-1] + F1[-1] + F[2,0] -> F[1,0] -> 0"),
    ("ars over F_3 identifies the factors of a conjugated lattice",
     ["--field", "Fp:3", "ars",
      '{"lattice": {"p": 1, "q": 1, "gens": [{"jump": 0, "dir": [1, 2]},'
      ' {"jump": 2, "dir": [1, 0]}, {"jump": 2, "dir": [0, 1]}]}}'], 0,
     "0 -> F[2,-1] -> F[1,-1] + F[3,0] -> F[2,0] -> 0"),
    ("index over F_2 reads the degrees of a conjugated lattice",
     ["--field", "Fp:2", "index",
      '{"lattice": {"p": 2, "q": 1, "gens": [{"jump": -1, "dir": [1, 1, 1]},'
      ' {"jump": 0, "dir": [0, 1, 0]}, {"jump": 2, "dir": [1, 0, 0]},'
      ' {"jump": 2, "dir": [0, 0, 1]}]}}'], 0,
     "singularity index = 3"),
    ("the singularity index of a two-million-step lattice is read without a search",
     ["index", "F[2000000,0] + F[1999999,0] + F[3,1]"], 0,
     "singularity index = 2000000"),
    ("index on torsion exits 2 with the library's error",
     ["index", "T[1,0]"], 2,
     "error: singularity index applies to torsion-free objects"),
    ("decompose over F_2 prints the sorted factors",
     ["--field", "Fp:2", "decompose", "F[2,0] + F[2,0] + F0[1] + F1[-1] + T[2,1]"], 0,
     "F1[-1] + F0[1] + F[2,0] + F[2,0] + T[2,1]"),
    ("decompose over F_3 prints the sorted factors",
     ["--field", "Fp:3", "decompose", "F[2,0] + F[2,0] + F0[1] + F1[-1] + T[2,1]"], 0,
     "F1[-1] + F0[1] + F[2,0] + F[2,0] + T[2,1]"),
    ("decompose over F_5 certifies a non-split frame with torsion",
     ["--field", "Fp:5", "decompose", FRAME], 0,
     "F[1,-1] + F[3,0] + T[1,0] + T[2,1]"),
    ("decompose over F_2 certifies the same frame, three lattice factors there",
     ["--field", "Fp:2", "decompose", FRAME], 0,
     "F1[-3] + F0[-1] + F[2,0] + T[1,0] + T[2,1]"),
    ("decompose prints the zero object as 0",
     ["decompose", "0"], 0,
     "0"),
    ("decompose under JSON lists no factor for the zero object",
     ["--format", "json", "decompose", "0"], 0,
     '{"command": "decompose", "factors": [], "schema": "zdinfty.report/1"}'),
    ("translate prints the translate of the zero object as 0",
     ["translate", "0"], 0,
     "0"),
    ("ext over F_2 puts source torsion against lattice and torsion slots",
     ["--field", "Fp:2", "ext", "T[2,1] + T[3,-1] + F[2,0]", "F[1,0] + F1[1] + T[3,0]"], 0,
     "dim Ext1 = 3"),
    ("ext over F_3 puts source torsion against lattice and torsion slots",
     ["--field", "Fp:3", "ext", "T[2,1] + T[3,-1] + F[2,0]", "F[1,0] + F1[1] + T[3,0]"], 0,
     "dim Ext1 = 3"),
    ("euler over Q counts Hom and Ext of mixed sums",
     ["--field", "Q", "euler", "F[2,0] + F[3,1] + T[2,1] + F1[0]", "F[1,-1] + F0[2] + T[3,0]"], 0,
     "dim Hom = 6, dim Ext1 = 3, euler = 3"),
    ("euler over F_2 counts Hom and Ext of mixed sums",
     ["--field", "Fp:2", "euler", "F[2,0] + F[3,1] + T[2,1] + F1[0]", "F[1,-1] + F0[2] + T[3,0]"], 0,
     "dim Hom = 6, dim Ext1 = 3, euler = 3"),
    ("euler over F_3 counts Hom and Ext of torsion-heavy sums",
     ["--field", "Fp:3", "euler", "T[3,1] + T[2,0] + F[2,0]", "T[3,0] + T[2,1] + F[1,0]"], 0,
     "dim Hom = 6, dim Ext1 = 4, euler = 2"),
    ("hom counts 64 rank-two atoms with themselves through their three labels",
     ["hom", L64, L64], 0,
     "dim Hom = 2731"),
    ("ext counts a conjugated pair of ranks 33 and 34 through its factors",
     ["ext", *C16], 0,
     "dim Ext1 = 102"),
    ("euler counts a conjugated pair of ranks 33 and 34 through its factors",
     ["euler", *C16], 0,
     "dim Hom = 322, dim Ext1 = 102, euler = 220"),
    ("ext rejects an F_3 literal against a Q atom with exit 2",
     ["ext", '{"field": "Fp:3", "lattice": {"p": 1, "q": 1, "gens": [{"jump": 0, "dir": [1, 2]},'
      ' {"jump": 2, "dir": [1, 0]}, {"jump": 2, "dir": [0, 1]}]}}', "F[2,0]"], 2,
     "error: cannot mix F3 and Q"),
    ("a 61-bit prime modulus is tested without trial division",
     ["--field", "Fp:2305843009213693951", "hom", "F[2,0]", "F[2,0]"], 0,
     "dim Hom = 1"),
    ("serre rejects a catalog one object past the pair limit before listing it",
     ["serre", "--catalog", "m<=1000,n<=499,a>=0,a<=0"], 2,
     "error: catalog 'm<=1000,n<=499,a>=0,a<=0' admits 1501 objects, 2253001 ordered pairs;"
     " the limit is 2250000 ordered pairs"),
    ("--help prints the usage and the global options",
     ["--help"], 0, HELP),
    ("ars --help prints the command's usage",
     ["ars", "--help"], 0, ARS_HELP),
    ("ars without its object under JSON prints the usage error record",
     ["--format", "json", "ars"], 2,
     '{"error": {"message": "the following arguments are required: A",'
     ' "position": null, "type": "UsageError"}, "schema": "zdinfty.report/1"}'),
    ("a literal's error record names the JSON path and writes the value as JSON",
     ["--format", "json", "decompose",
      '{"lattice": {"p": 1, "q": 0, "gens": [{"jump": 0, "dir": [null]}]}}'], 2,
     '{"error": {"message": "JSON literal.lattice.gens[0].dir[0] must be an integer or a string,'
     ' got null (at position 0)", "position": 0, "type": "ParseError"},'
     ' "schema": "zdinfty.report/1"}'),
    ("a literal's scalar error names the JSON path of the scalar",
     ["decompose", '{"lattice": {"p": 1, "q": 0, "gens": [{"jump": 0, "dir": ["x"]}]}}'], 2,
     "error: JSON literal.lattice.gens[0].dir[0]: expected an integer or a fraction n/d,"
     " got 'x' (at position 0)"),
    ("a literal's negative type count names the JSON path of the count",
     ["decompose", '{"lattice": {"p": -1, "q": 0}}'], 2,
     "error: JSON literal.lattice.p: lattice type counts must be non-negative,"
     " got p=-1, q=0 (at position 0)"),
    ("a literal's direction of the wrong length names the JSON path of the direction",
     ["decompose", '{"lattice": {"p": 2, "q": 0, "gens": [{"jump": 0, "dir": [1]}]}}'], 2,
     "error: JSON literal.lattice.gens[0].dir: direction of length 1, ambient rank 2"
     " (at position 0)"),
    ("a literal's torsion length of 0 names the JSON path of the length under JSON",
     ["--format", "json", "decompose", '{"torsion": [[0, 1]]}'], 2,
     '{"error": {"message": "JSON literal.torsion[0][0]: torsion summand needs positive'
     ' length, got 0 (at position 0)", "position": 0, "type": "ParseError"},'
     ' "schema": "zdinfty.report/1"}'),
    ("global options take their values after '='",
     ["--format=json", "--field=Fp:5", "ars", "F[1,0]"], 0,
     '{"command": "ars", "left": "F[1,-1]", "middle": ["F0[-1]", "F1[-1]", "F[2,0]"],'
     ' "right": "F[1,0]", "schema": "zdinfty.report/1"}'),
    ("quiver reads a unique prefix of --format and a negative bound after '='",
     ["--fo", "json", "quiver", "--m-max", "1", "--a-min=-3", "--a-max", "0", "--n-max", "1"], 0,
     '{"arrows": [["F0[-3]", "F[1,-2]"], ["F1[-3]", "F[1,-2]"], ["F0[-2]",'
     ' "F[1,-1]"], ["F1[-2]", "F[1,-1]"], ["F0[-1]", "F[1,0]"], ["F1[-1]", "F[1,0]"],'
     ' ["F[1,-3]", "F0[-3]"], ["F[1,-3]", "F1[-3]"], ["F[1,-2]", "F0[-2]"],'
     ' ["F[1,-2]", "F1[-2]"], ["F[1,-1]", "F0[-1]"], ["F[1,-1]", "F1[-1]"],'
     ' ["F[1,0]", "F0[0]"], ["F[1,0]", "F1[0]"]], "boundary_dropped": 20,'
     ' "nodes": ["F0[-3]", "F1[-3]", "F0[-2]", "F1[-2]", "F0[-1]", "F1[-1]", "F0[0]",'
     ' "F1[0]", "F[1,-3]", "F[1,-2]", "F[1,-1]", "F[1,0]", "T[1,-3]", "T[1,-2]",'
     ' "T[1,-1]", "T[1,0]"], "schema": "zdinfty.quiver/1",'
     ' "translation": {"F0[-1]": "F1[-2]", "F0[-2]": "F1[-3]", "F0[0]": "F1[-1]",'
     ' "F1[-1]": "F0[-2]", "F1[-2]": "F0[-3]", "F1[0]": "F0[-1]",'
     ' "F[1,-1]": "F[1,-2]", "F[1,-2]": "F[1,-3]", "F[1,0]": "F[1,-1]",'
     ' "T[1,-1]": "T[1,-2]", "T[1,-2]": "T[1,-3]", "T[1,0]": "T[1,-1]"}}'),
    ("a modulus past the exact primality bound exits 2",
     ["--field", "Fp:1000000000000000000000000000057", "hom", "F[2,0]", "F[2,0]"], 2,
     "error: modulus 1000000000000000000000000000057 is too large to test;"
     " it must be below 3317044064679887385961981"),
    ("a literal's integer past the digit limit exits 2, not as an internal error",
     ["decompose", '{"torsion": [[1' + "0" * 5000 + ', 0]]}'], 2,
     "error: JSON literal has an integer of more than 4300 digits (at position 0)"),
    ("a literal nested 30,000 deep exits 2 under JSON, not as an internal error",
     ["--format", "json", "decompose", '{"torsion": ' + "[" * 30000 + "]" * 30000 + "}"], 2,
     '{"error": {"message": "JSON literal nests too deeply (at position 0)", "position": 0,'
     ' "type": "ParseError"}, "schema": "zdinfty.report/1"}'),
    ("an unknown field exits 2 and names the fields there are",
     ["--field", "R", "hom", "F0[0]", "F0[0]"], 2,
     "error: unknown field 'R'; expected Q or Fp:<p>"),
    ("an unknown field under JSON prints its error record with no position",
     ["--format", "json", "--field", "R", "hom", "F0[0]", "F0[0]"], 2,
     '{"error": {"message": "unknown field \'R\'; expected Q or Fp:<p>", "position": null,'
     ' "type": "ZdinftyError"}, "schema": "zdinfty.report/1"}'),
]

# seconds, for the rows on the 64 atoms and on C_16: counted on the whole
# pair, not through the factors, they took 6-8 s and 3 s in-process
LIMITS = {row[0]: 2 for row in ROWS if L64 in row[1] or C16[0] in row[1]}


@pytest.mark.parametrize("name, argv, exit_code, stdout", ROWS, ids=[row[0] for row in ROWS])
def test_cli_expect(name, argv, exit_code, stdout):
    proc = subprocess.run(
        [sys.executable, "-m", "zdinfty.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=LIMITS.get(name, 10),
    )
    assert (proc.returncode, proc.stdout) == (exit_code, stdout + "\n"), name
