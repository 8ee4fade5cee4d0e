"""The suite's warning filters let a failing Hypothesis test report itself.

On a failure, hypothesis's pytest plugin imports libcst, and that import
raises mypy_extensions' TypedDict DeprecationWarning.  pyproject.toml turns
DeprecationWarnings into errors, so without its one targeted ignore the run
ends in an INTERNALERROR: no falsifying example, and no later test runs.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_after():
    pass
"""


def test_a_failing_hypothesis_test_shows_its_example_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_probe.py").write_text(textwrap.dedent(PROBE))
    # the tmp dir as cwd and rootdir: the run writes nothing into the checkout
    argv = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider"]
    proc = subprocess.run([*argv, "test_probe.py"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "x=5" in out
    assert "1 failed, 1 passed" in out
