"""Self-test of the span installer.

    python3 -m pytest -q perfbench/test_tracer.py

Runs a small mix of CLI and library calls untraced and traced, and checks
that tracing changes no output, that per-layer self times add up to the
traced wall time less the benchmark's own time, and that no wrapper is left
behind.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import pytest  # noqa: E402

import tracelab  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def _ops(tmp_path):
    ring = tmp_path / "f3_n3.ring"
    ring.write_text("[algebra]\nfield = F3\nvariables = x, y\nrelations = x^3, y^3\n", encoding="utf-8")
    return [
        lambda: workloads.run_cli(["verify", "--suite", "2"]),
        lambda: workloads.run_cli(["trace", "--ring", str(ring), "--ideal", "x, y^2"]),
        lambda: workloads.run_cli(["tor1", "--ring", str(ring), "--ideal", "x^2, x*y, y^3"]),
        lambda: workloads.run_cli(["semigroup-report", "--gens", "5,6,9"]),
        lambda: repr(workloads._library_query("cotrace", "x, y^2", "Q", 3).carrier.basis),
    ]


def _digest(outputs):
    return hashlib.sha256(repr(outputs).encode("utf-8")).hexdigest()


def _namespace_state():
    """Identity of everything the installer may touch: module and class
    attributes and function defaults, across tracelab."""
    state = {}
    for name, module in sys.modules.items():
        if name != "tracelab" and not name.startswith("tracelab."):
            continue
        for attr, value in vars(module).items():
            state[(name, attr)] = id(value)
            if isinstance(value, type):
                for cattr, raw in vars(value).items():
                    state[(name, attr, cattr)] = id(raw)
            defaults = getattr(value, "__defaults__", None)
            if defaults:
                state[(name, attr, "__defaults__")] = tuple(id(d) for d in defaults)
    return state


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("rings")
    untraced = [op() for op in _ops(tmp_path)]
    before = _namespace_state()
    tracer = Tracer()
    tracer.install()
    installed = Tracer.leftover_wrappers()
    t0 = time.perf_counter()
    try:
        traced = [op() for op in _ops(tmp_path)]
    finally:
        wall = time.perf_counter() - t0
        tracer.uninstall()
    assert _namespace_state() == before
    return untraced, traced, tracer, wall, installed


def test_tracing_changes_no_output(runs):
    untraced, traced, _tracer, _wall, _installed = runs
    assert _digest(traced) == _digest(untraced)


def test_self_times_add_up_to_traced_wall_time(runs):
    _untraced, _traced, tracer, wall, _installed = runs
    metrics = tracer.metrics()
    layer_self = sum(metrics["%s.self_s" % layer] for layer in LAYERS)
    roots = tracer.root_time()
    # Every span's time is some layer's self time...
    assert layer_self == pytest.approx(roots, rel=1e-9, abs=1e-9)
    # ...and what no span covers is the benchmark's own loop, a sliver.
    outside = wall - roots
    assert 0.0 <= outside < 0.05 * wall
    for layer in ("linalg", "artin", "homological", "semigroup", "verifier", "cli", "textio"):
        assert metrics["%s.self_s" % layer] > 0.0, layer
    assert metrics["verifier.checks"] > 0
    assert metrics["homological.hom_module.unknowns"] > 0


def test_installer_reaches_every_namespace_and_leaves_nothing(runs):
    _untraced, _traced, tracer, _wall, installed = runs
    # Names imported into other modules and function defaults were wrapped too.
    assert "tracelab.homological.kernel" in installed
    assert "tracelab.verifier.trace" in installed
    assert "defaults of tracelab.verifier.suite_section1" in installed
    assert "tracelab.linalg.Matrix.apply" in installed
    assert Tracer.leftover_wrappers() == []
    assert tracelab.homological.kernel is tracelab.linalg.kernel
    assert tracelab.verifier.suite_section1.__defaults__[0] is tracelab.homological.trace


def _counts_in_fresh_interpreter(tmp_path):
    script = (
        "import json, sys; sys.path.insert(0, %r); import test_tracer; "
        "print(json.dumps(test_tracer.counted(__import__('pathlib').Path(%r))))" % (str(BENCH_DIR), str(tmp_path))
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def counted(tmp_path):
    """The count metrics of one traced pass over the ops."""
    tracer = Tracer()
    tracer.install()
    try:
        for op in _ops(tmp_path):
            op()
    finally:
        tracer.uninstall()
    return {k: v for k, v in tracer.metrics().items() if not k.endswith("_s")}


def test_counts_repeat_exactly_across_processes(tmp_path):
    first = _counts_in_fresh_interpreter(tmp_path)
    assert first["linalg.apply.calls"] > 0
    assert _counts_in_fresh_interpreter(tmp_path) == first
