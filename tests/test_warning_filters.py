"""The suite's warning filters: warnings still fail tests, and a failing
Hypothesis property reports its falsifying example instead of an
INTERNALERROR from Hypothesis's own reporting."""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property(x):
    assert x < 5
"""


def _pytest_on(tmp_path, source):
    """Run pytest, configured by this repository's pyproject.toml, on one file."""
    test_file = tmp_path / "test_probe.py"
    test_file.write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(test_file)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )


def test_failing_property_reports_its_example(tmp_path):
    run = _pytest_on(tmp_path, FAILING_PROPERTY)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output


@pytest.mark.parametrize(
    "message, category",
    [
        ("this helper is deprecated", "DeprecationWarning"),
        ("mypy_extensions.NamedTuple is deprecated", "DeprecationWarning"),
        ("mypy_extensions.TypedDict is deprecated", "UserWarning"),
    ],
)
def test_other_warnings_still_fail(tmp_path, message, category):
    source = f"""
import warnings


def test_warns():
    warnings.warn({message!r}, {category})
"""
    run = _pytest_on(tmp_path, source)
    assert run.returncode == 1, run.stdout + run.stderr
    assert f"{category}: {message}" in run.stdout
