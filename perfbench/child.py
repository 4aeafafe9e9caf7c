"""One workload pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py WORKLOAD SEED MODE SPAWNED_AT DEADLINE

MODE is `setup` (set up, then stop before the first op), `timed`, or
`traced`.  SPAWNED_AT is the parent's time.perf_counter() just before it
started this process, and DEADLINE the perf_counter() value by which every op
must have finished; both are CLOCK_MONOTONIC readings, comparable across
processes.  Exit code 0 means the JSON line was printed, whatever the ops did.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

# How often the speed probe samples, in seconds of this process's CPU time.
PROBE_EVERY_S = 0.5
# Nominal duration of one reference slice: the machine's fast state.
REFERENCE_SLICE_S = 0.004


def _reference_slice():
    """Fixed plain-Python work with a small working set, independent of tracelab."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(20000):
        key = i & 255
        table[key] = (i, acc & 1023)
        acc += table[key][1] + (i % 7)
    return time.perf_counter() - t0


def _best_slice():
    return min(_reference_slice() for _ in range(3))


# Sampled before tracelab is imported, to rescale the set-up time.
_STARTED_AT = time.perf_counter()
_FIRST_SLICE = _best_slice()
_FIRST_SLICE_PAUSE = time.perf_counter() - _STARTED_AT

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the src path)
from tracer import Tracer  # noqa: E402


class OpTimeout(BaseException):
    """Raised by SIGALRM when an op runs past its time limit.

    A BaseException, so no `except Exception` inside tracelab swallows it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


class SpeedProbe:
    """Rescales the timed region's wall time to a reference machine speed.

    On a shared machine the same work can take a quarter to a half longer in
    some stretches of tens of seconds than in others (other tenants on the
    same cores).  The probe times a fixed reference slice (best of three) at
    the start, at the end, and every PROBE_EVERY_S of CPU time in between,
    from a SIGVTALRM handler, so it also samples inside a long op.  The work
    time between two samples is scaled by REFERENCE_SLICE_S over the mean of
    the two; the time spent in the slices themselves is left out of every
    figure.
    """

    def __init__(self):
        self.rescaled_s = 0.0
        self.paused_s = 0.0
        self._last_slice = None
        self._last_end = None

    def sample(self, *_signal_args):
        t0 = time.perf_counter()
        slice_s = _best_slice()
        if self._last_slice is not None:
            scale = 2 * REFERENCE_SLICE_S / (self._last_slice + slice_s)
            self.rescaled_s += (t0 - self._last_end) * scale
        t1 = time.perf_counter()
        self.paused_s += t1 - t0
        self._last_slice, self._last_end = slice_s, t1

    def start(self, periodic=True):
        """Sample now and then every PROBE_EVERY_S of CPU time, or, when not
        periodic, only where `between_ops` finds that much time has gone."""
        self.periodic = periodic
        self.sample()
        if periodic:
            signal.signal(signal.SIGVTALRM, self.sample)
            signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def between_ops(self):
        if not self.periodic and time.perf_counter() - self._last_end >= PROBE_EVERY_S:
            self.sample()

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        self.sample()


def run_ops(ops, limit_s, deadline, probe):
    """Run the ops in order, each under its time limit; record latency and errors."""
    signal.signal(signal.SIGALRM, _on_alarm)
    for op in ops:
        budget = min(limit_s, deadline - time.perf_counter())
        if budget <= 0:
            op.error = "not started: the run's deadline has passed"
            continue
        paused = probe.paused_s
        signal.setitimer(signal.ITIMER_REAL, budget)
        t0 = time.perf_counter()
        try:
            op.output = op.fn()
        except OpTimeout:
            op.error = "timeout after %.1f s" % budget
        except Exception as exc:  # recorded as a failed op, the run goes on
            op.error = "%s: %s" % (type(exc).__name__, exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            op.latency_s = time.perf_counter() - t0 - (probe.paused_s - paused)
        probe.between_ops()


def main(argv):
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    spawned_at, deadline = float(argv[3]), float(argv[4])
    workdir = ROOT / ".perfbench" / ("work-%d" % os.getpid())
    workload = workloads.WORKLOADS[name](seed, workdir)
    ready = time.perf_counter()
    last_slice = _best_slice()
    # Interpreter start, imports and input generation, rescaled like the ops.
    setup_s = (ready - spawned_at - _FIRST_SLICE_PAUSE) * 2 * REFERENCE_SLICE_S / (_FIRST_SLICE + last_slice)
    out = {"setup_s": setup_s}
    if mode != "setup":
        tracer = Tracer() if mode == "traced" else None
        if tracer is not None:
            tracer.install()
        probe = SpeedProbe()
        # The traced run is probed only between ops: a slice inside a span
        # would count as that layer's self time.
        probe.start(periodic=tracer is None)
        paused0 = probe.paused_s
        t0 = time.perf_counter()
        try:
            run_ops(workload.ops, workload.op_limit_s, deadline, probe)
        finally:
            wall_s = time.perf_counter() - t0 - (probe.paused_s - paused0)
            probe.stop()
            if tracer is not None:
                tracer.uninstall()
        out["wall_s"] = wall_s
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["rescaled_s"] = probe.rescaled_s
        if tracer is not None:
            out["layers"] = tracer.metrics()
            out["span_root_s"] = tracer.root_time()
            out["spans"] = len(tracer.names)
        workload.check()
        out["ops"] = [[op.name, op.rung, op.latency_s, op.error] for op in workload.ops]
    workload.cleanup()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
