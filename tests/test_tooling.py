"""The repository's pytest configuration, run on a test outside the suite,
the README's examples, run as written, and the benchmark's oracle on what
the library returns."""

import pathlib
import re
import shlex
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
    # multiprocessing and concurrent.futures would add some 18 ms to every
    # interpreter start; only a verify worker that dies loads the latter,
    # for BrokenProcessPool.  dataclasses would add some 12 ms more, with
    # inspect, ast, dis and tokenize; the records are NamedTuples instead.
    # Those two are read off the modules the import adds, so that one a
    # site hook loaded first does not count.
    code = (
        "import sys; sys.path.insert(0, %r); before = set(sys.modules); import tracelab, tracelab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent'))); "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
        % str(ROOT / "src")
    )
    result = subprocess.run([sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n[]\n"


POOLED_VERIFY = """
import contextlib, hashlib, io, sys
sys.path.insert(0, %r)
from tracelab import cli, verifier
verifier._worker_count = lambda jobs: 2
with contextlib.redirect_stdout(io.StringIO()) as report:
    code = cli.main(["verify", "--suite", "all"])
print(code, sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent")))
print(hashlib.sha256(report.getvalue().encode("utf-8")).hexdigest())
"""


def test_a_pooled_verify_leaves_the_process_pool_out():
    # Its two workers are plain forks pulling jobs from one pipe.  Subspaces
    # and submodules hash by object address, which differs between
    # interpreters, so the report digest from this fresh one shows that no
    # set or dict of them is iterated into the report.
    code = POOLED_VERIFY % str(ROOT / "src")
    result = subprocess.run([sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 []\n5c63178d833783eaab84173f0dfb853b1c1ba6bcdd7f029543dcda1bcfd887d4\n"


def readme_block(heading, fence):
    """The first code block opened by `fence` after the README's `heading` line."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    after = text[text.index("\n%s\n" % heading) :]
    start = after.index("\n%s\n" % fence) + len(fence) + 2
    return after[start : after.index("\n```\n", start)]


def test_readme_command_lines_exit_zero(tmp_path, monkeypatch, capsys):
    # The ring and module the command lines name: the tour's Q[x,y]/(x^2, xy, y^2).
    (tmp_path / "fat.ring").write_text("[algebra]\nfield = Q\nvariables = x, y\nrelations = x^2, x*y, y^2\n")
    (tmp_path / "mod.mod").write_text("[module]\ngenerators = 2\npresentation = x, 0 ; y, x\n")
    monkeypatch.chdir(tmp_path)
    from tracelab.cli import main

    lines = readme_block("## Command line", "```").splitlines()
    assert len(lines) == 12 and all(line.startswith("tracelab ") for line in lines)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)


def test_readme_library_tour_states_its_values():
    # Each line commented "# N: ..." is an expression whose value is N.
    tour = readme_block("## Library tour", "```python")
    namespace = {}
    exec(tour, namespace)
    stated = [line.split("#") for line in tour.splitlines() if re.search(r"#\s*\d+:", line)]
    assert len(stated) == 3
    for expression, comment in stated:
        assert eval(expression, namespace) == int(comment.split(":")[0]), expression


def test_the_benchmark_oracle_reads_what_the_library_returns(tmp_path, monkeypatch):
    # perfbench's functor ladder reads its library ops' outputs (.carrier of
    # a trace, .dim of Ext1 and Tor1).  A return type it cannot read fails
    # here, not first in a benchmark run.  perfbench itself is only imported.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    ladder = workloads.FunctorLadder(7, tmp_path / "rings")
    try:
        for op in ladder.ops:
            try:
                op.output = op.fn()
            except Exception as exc:  # recorded as the benchmark records it
                op.error = "%s: %s" % (type(exc).__name__, exc)
        ladder.check()
    finally:
        ladder.cleanup()
    assert len(ladder.ops) == 66
    assert [(op.name, op.error) for op in ladder.ops if op.error is not None] == []
