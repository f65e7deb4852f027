"""The CI workflow parses, each step of the tier-1 job runs or uses exactly
one thing, its pip step installs the packages of the ``test`` extra and no
others, and the CLI's expectations run under pytest, not as steps.

A plain YAML scalar holding ``": "`` once made the workflow invalid, and
nothing ran it until then; this loads it the way the CI runner does.
"""

import ast
import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
PIP = "python -m pip install "
PYTEST = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"


def test_workflow_parses_into_steps():
    doc = yaml.safe_load(WORKFLOW.read_text())
    # YAML 1.1 reads the bare key `on` as the boolean true
    assert True in doc and "on" not in doc
    steps = doc["jobs"]["tier1"]["steps"]
    assert isinstance(steps, list) and steps
    for step in steps:
        assert isinstance(step, dict), step
        assert ("run" in step) != ("uses" in step), step


def test_cli_checks_are_pytest_rows_not_steps():
    """A CLI expectation is a row of ``tests/test_cli_expect.py`` or a golden
    invocation, both run by the pytest step; no step runs the CLI itself."""
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    runs = [step.get("run", "") for step in steps]
    assert PYTEST in runs
    assert [run for run in runs if "zdinfty.cli" in run] == []


def test_pip_step_installs_the_test_extra():
    """The workflow installs what ``pip install -e ".[test]"`` would add: the
    extra lists every package the tests import, ``yaml`` included."""
    # tomllib is 3.11+ and the matrix starts at 3.10, so read the one line
    line = re.search(r"^test = (\[.*\])$", (ROOT / "pyproject.toml").read_text(), re.M)
    extra = ast.literal_eval(line.group(1))
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    (pip,) = [step["run"] for step in steps if step.get("run", "").startswith(PIP)]
    assert sorted(pip[len(PIP):].split()) == sorted(extra)
