"""The CI workflow installs what pyproject.toml declares and runs the tier-1
command exactly as ROADMAP.md writes it."""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]


def _workflow():
    return yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())


def _runs():
    """The ``run`` line of every step of the tier-1 workflow."""
    return [step.get("run") for job in _workflow()["jobs"].values() for step in job["steps"]]


def test_ci_runs_the_roadmap_tier1_command():
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())
    assert tier1, "ROADMAP.md no longer states the tier-1 command"
    assert tier1.group(1) in _runs()


def test_ci_installs_through_the_package_metadata():
    # a package list written into the workflow drifts from what pyproject.toml declares
    assert any(run and "pip install" in run and '".[test]"' in run for run in _runs())


def test_ci_prints_the_versions_the_digests_pin():
    # the golden streams pin zlib's deflate, the synthetic frames numpy's Generator
    assert any(run and "numpy.__version__" in run and "zlib.ZLIB_VERSION" in run
               for run in _runs())


def test_ci_prints_numpys_simd_dispatch():
    # the decoded-point goldens pin numpy's exp, cos and sin, whose kernels
    # numpy chooses by CPU at run time
    assert 'python -c "import numpy; numpy.show_runtime()"' in _runs()


def test_ci_prints_the_line_count_roadmap_tracks():
    # aim 2 of ROADMAP.md states the total of this count
    assert "wc -l src/cylpc/*.py | tail -n 1" in _runs()


def test_ci_legs_start_at_the_numpy_floor():
    # the tests call np.trapezoid, which numpy 2.0 added: a numpy 1 leg fails
    # tier-1, so pyproject.toml's floor and the oldest leg are both 2.0
    floor = re.search(r'"numpy>=([\d.]+)"', (ROOT / "pyproject.toml").read_text())
    assert floor and floor.group(1) == "2.0"
    legs = [leg["numpy"] for job in _workflow()["jobs"].values()
            for leg in job["strategy"]["matrix"]["include"]]
    assert "numpy==2.0.*" in legs
    assert all(leg == "numpy" or leg.startswith("numpy==2.") for leg in legs)


def test_ci_oldest_leg_runs_the_python_floor():
    # a leg above pyproject.toml's floor leaves the oldest Python it allows untested
    floor = re.search(r'requires-python = ">=([\d.]+)"', (ROOT / "pyproject.toml").read_text())
    assert floor and floor.group(1) == "3.10"
    legs = [leg["python"] for job in _workflow()["jobs"].values()
            for leg in job["strategy"]["matrix"]["include"]]
    assert min(legs, key=lambda v: tuple(map(int, v.split(".")))) == floor.group(1)


def test_ci_runs_every_benchmark_workload():
    # perfbench/test_perfbench.py runs only tiny frames of two workloads
    assert "python3 perfbench/run.py --workload all --seconds 1" in _runs()


def _toml_list(key):
    """The quoted entries of one ``key = [...]`` list of pyproject.toml (the
    3.10 leg has no tomllib)."""
    block = re.search(rf"^{key} = \[(.*?)\]", (ROOT / "pyproject.toml").read_text(), re.M | re.S)
    assert block, f"pyproject.toml no longer has a '{key} = [' list"
    return re.findall(r'"([^"]+)"', block.group(1))


def test_the_codec_installs_with_numpy_alone():
    # only analyze's k-nearest-neighbour query needs scipy; acceptance's
    # spearmanr needs it too, and CI installs the test extra
    assert _toml_list("dependencies") == ["numpy>=2.0"]
    assert any(dep.startswith("scipy") for dep in _toml_list("test"))


def test_tier1_turns_cylpcs_warnings_into_errors():
    # a test that expects a warning records it; any other one fails the run
    assert {"error::RuntimeWarning", "error::DeprecationWarning:cylpc",
            "error::FutureWarning:cylpc", "error::UserWarning:cylpc"} <= set(
        _toml_list("filterwarnings"))


def test_ci_runs_the_readme_cli_examples():
    # no test runs the console script pyproject.toml installs: CI runs each
    # command of README.md's "## CLI" block with it, in a fresh directory,
    # and bash -e fails the step on the first non-zero exit
    steps = [step for job in _workflow()["jobs"].values() for step in job["steps"]
             if step.get("name") == "README CLI examples"]
    assert len(steps) == 1, "tier1.yml has no 'README CLI examples' step"
    run = steps[0]["run"]
    assert """sed -n '/^## CLI$/,/^```$/p' "$readme" """ in run
    assert 'cd "$(mktemp -d)"' in run and "bash -ex examples.sh" in run
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert block, "README.md no longer opens its '## CLI' section with a sh block"
    assert block.group(1).startswith("cylpc ")
