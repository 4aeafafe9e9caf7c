"""The repository's pytest configuration, run on a test outside the suite."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_a_failing_hypothesis_test_reports_its_example(tmp_path):
    # Warnings are errors, so a warning raised while hypothesis reports the
    # failure would end the session with INTERNALERROR and lose the example.
    (tmp_path / "test_failing.py").write_text(FAILING)
    config = str(ROOT / "pyproject.toml")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", config, "test_failing.py"]
    result = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = result.stdout + result.stderr
    assert result.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
