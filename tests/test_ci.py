"""The CI workflow runs the tier-1 command exactly as ROADMAP.md writes it."""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]


def test_ci_runs_the_roadmap_tier1_command():
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())
    assert tier1, "ROADMAP.md no longer states the tier-1 command"
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    runs = [step.get("run") for job in workflow["jobs"].values() for step in job["steps"]]
    assert tier1.group(1) in runs
