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


def test_importing_the_package_leaves_the_process_pool_out():
    # run_suites imports its pool when it starts one: multiprocessing and
    # concurrent.futures would add some 18 ms to every interpreter start.
    code = (
        "import sys; sys.path.insert(0, %r); import tracelab, tracelab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
        % str(ROOT / "src")
    )
    result = subprocess.run([sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
