"""Every demo runs to completion against the current API and prints the
pinned bytes: a refactor that changes a demo's output fails here."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout.
STDOUT_SHA256 = {
    "01_exact_linear_algebra.py": "5bfacab9005f8d9f0d67b775789a3d2d58136df21d9e44b86c825dbc6131f062",
    "02_building_artinian_algebras.py": "4bdde0a5a57cb99ca1d1c262a26563054642ab4b786e341e358eea97a75eca22",
    "03_trace_and_excellence.py": "c7fb38bf5b88071b0e62767e26b4bfaae0bc6de73613072970bee60c2822fdd4",
    "04_duality_ext_tor.py": "5d87f0dd781b99ac53761ff3bd39749b2a3b73f1df1e6e084ebb5a4375926c7b",
    "05_semigroup_stable_trace.py": "5e822d40693dc786c2f6b26887ce391a551bfd1ab4bd5f9f8bc348ce0e29dc25",
    "06_theorem_suites.py": "e55a539791f9bb38827cc6eeb02aace9269a7f927b3ae3cf20785d060e4e5860",
}


def test_demos_are_found():
    assert [d.name for d in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.strip()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.name], result.stdout.decode()
