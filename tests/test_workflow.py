"""The CI workflow parses, and each step of the tier-1 job runs or uses
exactly one thing.

A plain YAML scalar holding ``": "`` once made the workflow invalid, and
nothing ran it until then; this loads it the way the CI runner does.
"""

from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_workflow_parses_into_steps():
    doc = yaml.safe_load(WORKFLOW.read_text())
    # YAML 1.1 reads the bare key `on` as the boolean true
    assert True in doc and "on" not in doc
    steps = doc["jobs"]["tier1"]["steps"]
    assert isinstance(steps, list) and steps
    for step in steps:
        assert isinstance(step, dict), step
        assert ("run" in step) != ("uses" in step), step
