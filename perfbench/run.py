"""tracelab benchmark: one workload, measured in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 the workload runs in fresh
child interpreters, one after another, until S seconds have gone (at least
once), after four set-up-only children; the last line printed is a JSON
object with the end-to-end metrics.  With --trace 1 it runs once untraced and
once traced, and the last line holds the per-layer metrics.  The lines
before it are for people: every metric by its name, the environment and, per
latency rung, the highest percentile with at least ten samples beyond it.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402  (stdlib only; does not import tracelab)

WORKLOADS = ("verify_catalog", "functor_ladder", "semigroup_reports")
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0  # every run must end within 180 s
CHILD_GRACE_S = 5.0
# Wall time of the workload's ops, named per workload.
WALL_METRIC = {"verify_catalog": "verify_s", "functor_ladder": "ladder_s", "semigroup_reports": "semigroup_s"}
RUNGS = {"functor_ladder": ("d9", "d16", "d25")}


class RunFailed(Exception):
    pass


def run_child(workload, seed, mode, deadline):
    """Start one child interpreter, wait for it, and return its JSON (None on timeout)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.perf_counter()
    argv = [sys.executable, str(CHILD), workload, str(seed), mode, repr(spawned_at), repr(deadline)]
    proc = subprocess.Popen(argv, cwd=str(ROOT), env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter() + CHILD_GRACE_S))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed("child %s exited %s: %s" % (mode, proc.returncode, err.strip()[-2000:]))
    return json.loads(lines[-1])


def _git_commit():
    """HEAD of the checkout's git repository, read from .git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tracelab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "tracelab_commit": _git_commit(),
        "tracelab_source_sha256": _source_digest(),
    }


def _percentile_line(samples):
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return "no percentile has 10 samples beyond it (%d samples)" % n
    ordered = sorted(samples)
    return "p%.1f = %.6f s (%d beyond, %d samples)" % (100.0 * (n - 10) / n, ordered[n - 11], 10, n)


def measure(workload, seed, seconds, deadline):
    """--trace 0: set-up probes, then timed passes until `seconds` have gone."""
    setups = []
    for _ in range(SETUP_PROBES):
        result = run_child(workload, seed, "setup", deadline)
        if result is None:
            raise RunFailed("set-up probe timed out")
        setups.append(result["setup_s"])
    passes, killed = [], 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if deadline - time.perf_counter() < 1.0:
            break
        result = run_child(workload, seed, "timed", deadline)
        if result is None:
            killed += 1
            break
        passes.append(result)
        setups.append(result["setup_s"])
    return setups, passes, killed


def counts(passes, killed):
    attempted = sum(len(p["ops"]) for p in passes) + killed
    failed = sum(1 for p in passes for op in p["ops"] if op[3] is not None) + killed
    return attempted, failed


def report_failures(passes):
    for p in passes:
        for name, _rung, _latency, error in p["ops"]:
            if error is not None:
                print("FAILED %s: %s" % (name, error))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (ROOT / "src" / "tracelab" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no tracelab sources under %s\n" % (ROOT / "src"))
        return 2
    env = environment()
    try:
        if args.trace:
            return trace_run(args, env, deadline)
        return timed_run(args, env, deadline)
    except RunFailed as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1
    finally:
        try:
            (ROOT / ".perfbench").rmdir()
        except OSError:
            pass


def timed_run(args, env, deadline):
    setups, passes, killed = measure(args.workload, args.seed, args.seconds, deadline)
    if not passes:
        raise RunFailed("no pass finished before the run's deadline")
    attempted, failed = counts(passes, killed)
    report_failures(passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "workload_s": statistics.median(p["rescaled_s"] for p in passes),
    }
    units = {"setup_s": "s", "peak_rss_mb": "MB", "workload_s": "s"}
    print("workload %s, seed %d: %d pass(es), %d op(s) attempted, %d failed"
          % (args.workload, args.seed, len(passes), attempted, failed))
    print("  %-18s %12.6f s    median of %d set-ups" % ("setup_s", metrics["setup_s"], len(setups)))
    print("  %-18s %12.3f MB   median over passes" % ("peak_rss_mb", metrics["peak_rss_mb"]))
    print("  %-18s %12.6f ratio" % ("error_rate", failed / attempted if attempted else 0.0))
    print("  %-18s %12.6f s    median over passes, rescaled to reference speed"
          % ("workload_s", metrics["workload_s"]))
    print("  %-18s %12.6f s    median over passes, wall time as measured"
          % (WALL_METRIC[args.workload], statistics.median(p["wall_s"] for p in passes)))
    for rung in RUNGS.get(args.workload, ()):
        samples = [op[2] for p in passes for op in p["ops"] if op[1] == rung and op[3] is None]
        if samples:
            print("  %-18s %12.6f s    median of %d; %s"
                  % ("query_p50_s." + rung, statistics.median(samples), len(samples), _percentile_line(samples)))
    print(json.dumps({"env": env}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def trace_run(args, env, deadline):
    plain = run_child(args.workload, args.seed, "timed", deadline)
    traced = run_child(args.workload, args.seed, "traced", deadline)
    if plain is None or traced is None:
        raise RunFailed("a pass did not finish before the run's deadline")
    attempted, failed = counts([plain, traced], 0)
    report_failures([plain, traced])
    metrics = dict(traced["layers"])
    # Both rescaled to reference speed, so machine drift between the two
    # processes does not pass for tracing overhead.
    metrics["tracer.overhead"] = traced["rescaled_s"] / plain["rescaled_s"] - 1.0
    print("traced %s, seed %d: %.3f s traced against %.3f s untraced at reference speed "
          "(%.3f s against %.3f s wall), overhead %.1f%%; %d spans, %.3f s outside any span"
          % (args.workload, args.seed, traced["rescaled_s"], plain["rescaled_s"], traced["wall_s"],
             plain["wall_s"], 100 * metrics["tracer.overhead"], traced["spans"],
             traced["wall_s"] - traced["span_root_s"]))
    for name in sorted(metrics):
        print("  %-40s %16.6f %s" % (name, metrics[name], tracer.unit_of(name)))
    print(json.dumps({"env": env}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": tracer.unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
