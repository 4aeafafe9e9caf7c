"""The three benchmark workloads: inputs made from a seed, operations, checks.

Constructing a workload is its set-up (input generation and ring files);
each entry of `ops` is one closed-loop operation, issued only after the
previous one returned; `check()` runs the oracles after the timed region.
Every tracelab entry point is looked up on its module at call time, so the
traced run's wrappers see each call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import oracles
import tracelab
from tracelab import artin, cli, homological
from tracelab.verifier import default_catalog, subspace_json


class Op:
    """One operation: a call with no arguments, and what became of it."""

    __slots__ = ("name", "rung", "fn", "output", "latency_s", "error")

    def __init__(self, name, fn, rung=None):
        self.name = name
        self.rung = rung
        self.fn = fn
        self.output = None
        self.latency_s = None
        self.error = None


def run_cli(argv):
    """tracelab.cli.main in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_payload(op):
    """The result payload of a CLI op that must have exited 0."""
    code, out, err = op.output
    if code != 0:
        raise AssertionError("exit code %r: %s" % (code, err.strip()[:200]))
    return json.loads(out)


class Workload:
    op_limit_s = 60.0

    def check(self):
        """Run the oracle on every finished op; record mismatches as op errors."""
        for op in self.ops:
            if op.error is not None:
                continue
            try:
                problems = self.check_op(op)
            except Exception as exc:  # a malformed output is a mismatch too
                problems = ["unreadable output: %r" % (exc,)]
            if problems:
                op.error = "oracle: " + "; ".join(problems)

    def cleanup(self):
        pass


class VerifyCatalog(Workload):
    """`tracelab verify --suite all` over the checked-in catalog.

    Always at the catalog's default verify seed, whatever the benchmark's
    seed: that is the canonical report, whose check counts and bytes are
    pinned, so every pass is held to byte identity and does the same work.
    """

    op_limit_s = 150.0

    def __init__(self, seed, workdir):
        argv = ["verify", "--suite", "all", "--seed", str(oracles.DEFAULT_VERIFY_SEED)]
        self.ops = [Op("verify", lambda: run_cli(argv))]

    def check_op(self, op):
        report = cli_payload(op)
        return oracles.check_verify(oracles.DEFAULT_VERIFY_SEED, op.output[1], report)


LADDER_FUNCTORS = ("trace", "cotrace", "ext1", "tor1")
LADDER_IDEALS = ("x, y^2", "x^2, x*y, y^3")
LADDER_FIELDS = ("F2", "Q")
LADDER_MODULES = ("R", "dual(R)")
LADDER_EXPONENTS = (3, 4)
# (functor, ideal, module, field, n) queries added at dim 25.
LADDER_TOP_RUNG = (("trace", "x, y^2", "R", "F2", 5), ("tor1", "x, y^2", "R", "F2", 5))


def _relations(n):
    return ["x^%d" % n, "y^%d" % n]


def _ideal_gens(text):
    return [g.strip() for g in text.split(",")]


def _library_query(functor, ideal_text, field, n):
    """A cold query on dual(R): build the algebra, the ideal and the module."""
    pres = artin.PolynomialPresentation(field, ["x", "y"], _relations(n))
    algebra = artin.build_algebra(pres)
    ideal = artin.ideal_from_elements(algebra, _ideal_gens(ideal_text))
    module = homological.matlis_dual(artin.regular_module(algebra)).rep
    if functor == "tor1":
        return homological.tor1(module, ideal)
    return getattr(homological, functor)(ideal, module)


class FunctorLadder(Workload):
    """Cold trace/cotrace/Ext1/Tor1 queries on k[x,y]/(x^n, y^n)."""

    op_limit_s = 60.0

    def __init__(self, seed, workdir):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        queries = [
            (functor, ideal, module, field, n)
            for n in LADDER_EXPONENTS
            for field in LADDER_FIELDS
            for module in LADDER_MODULES
            for ideal in LADDER_IDEALS
            for functor in LADDER_FUNCTORS
        ]
        queries.extend(LADDER_TOP_RUNG)
        # Shuffled within each rung, rungs in ascending order: every query's
        # results stay cached, so running the dim-25 queries at a seeded
        # point would move the peak RSS by a fifth from seed to seed.
        random.Random(seed).shuffle(queries)
        queries.sort(key=lambda q: q[4])
        self.rings = {}
        self.ops = []
        self.queries = {}
        # Oracle answers, computed in check() on algebras of their own, so no
        # cache entry of a query is reused.
        self._expected = {}
        for query in queries:
            functor, ideal, module, field, n = query
            if module == "R":
                argv = [functor, "--ring", str(self._ring(field, n)), "--ideal", ideal]
                fn = lambda argv=argv: run_cli(argv)
            else:
                fn = lambda q=query: _library_query(q[0], q[1], q[3], q[4])
            op = Op("%s %s (%s) over %s, n=%d" % (functor, module, ideal, field, n), fn, rung="d%d" % (n * n))
            self.queries[id(op)] = query
            self.ops.append(op)

    def _ring(self, field, n):
        path = self.rings.get((field, n))
        if path is None:
            path = self.workdir / ("%s_n%d.ring" % (field, n))
            path.write_text(
                "[algebra]\nfield = %s\nvariables = x, y\nrelations = %s\n"
                % (field, ", ".join(_relations(n))),
                encoding="utf-8",
            )
            self.rings[(field, n)] = path
        return path

    def _oracle(self, module_kind, ideal_text, field, n):
        """(IM, M[I]) as subspace JSON; Gorenstein R makes R and dual(R) injective."""
        key = (module_kind, ideal_text, field, n)
        if key not in self._expected:
            algebra = tracelab.build_algebra(tracelab.PolynomialPresentation(field, ["x", "y"], _relations(n)))
            ideal = tracelab.ideal_from_elements(algebra, _ideal_gens(ideal_text))
            module = tracelab.regular_module(algebra)
            if module_kind != "R":
                module = tracelab.matlis_dual(module).rep
            self._expected[key] = (
                subspace_json(tracelab.ideal_times_module(ideal, module).carrier),
                subspace_json(tracelab.torsion_submodule(module, ideal).carrier),
            )
        return self._expected[key]

    def check_op(self, op):
        functor, ideal_text, module_kind, field, n = self.queries[id(op)]
        im, torsion = self._oracle(module_kind, ideal_text, field, n)
        if module_kind == "R":
            key = {"trace": "trace", "cotrace": "cotrace", "ext1": "ext1_dim", "tor1": "tor1_dim"}[functor]
            got = cli_payload(op)["result"][key]
        elif functor in ("trace", "cotrace"):
            got = subspace_json(op.output.carrier)
        else:
            got = op.output.dim
        expected = {"trace": im, "cotrace": torsion, "ext1": 0, "tor1": 0}[functor]
        if got != expected:
            return ["%s differs from its injective-module value" % functor]
        return []

    def cleanup(self):
        for path in self.rings.values():
            path.unlink(missing_ok=True)
        with contextlib.suppress(OSError):
            self.workdir.rmdir()


STREAM_SIZE = 12
STREAM_MAX_CONDUCTOR = 200
# Cap on the cost estimate conductor^2 * nu of one seeded set.
STREAM_COST_CAP = 320_000
EXTRA_SEMIGROUPS = ((13, 17), (17, 23, 29))


def _minimal(gens):
    """No generator is a sum of the others."""
    return not any(oracles.sieve([h for h in gens if h != g], g + 1)[g] for g in gens)


def seeded_semigroups(rng):
    """Twelve semigroups with multiplicity 5-13, 2-3 minimal generators and
    conductor at most 200.

    A report's cost grows about as conductor^2 * nu, so the k-th set is the
    first draw whose estimate falls in the k-th of twelve equal bands of
    (0, STREAM_COST_CAP]: every seed's stream then costs about the same.
    """
    bands = [None] * STREAM_SIZE
    while None in bands:
        e = rng.randint(5, 13)
        gens = tuple(sorted([e] + rng.sample(range(e + 1, 3 * e + 1), rng.randint(1, 2))))
        c = oracles.conductor_within(gens, STREAM_MAX_CONDUCTOR)
        if c is None or c * c > STREAM_COST_CAP or not _minimal(gens):
            continue
        cost = c * c * oracles.nu_of(gens, c)
        band = (cost - 1) * STREAM_SIZE // STREAM_COST_CAP
        if band < STREAM_SIZE and bands[band] is None:
            bands[band] = gens
    return bands


class SemigroupReports(Workload):
    """Stable-trace reports plus goodness queries on numerical semigroups."""

    op_limit_s = 60.0

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.ops = []
        self.inputs = {}
        catalog = list(default_catalog().semigroups)
        for gens in catalog + list(EXTRA_SEMIGROUPS) + seeded_semigroups(rng):
            text = ",".join(str(g) for g in gens)
            c = oracles.conductor_within(gens, oracles.TOP)
            values = tuple(sorted(rng.sample(range(c + gens[0]), min(c + gens[0], rng.randint(1, 3)))))
            report = Op("semigroup-report <%s>" % text, lambda t=text: run_cli(["semigroup-report", "--gens", t]))
            good_argv = ["semigroup-good", "--gens", text, "--ideal", ",".join(str(v) for v in values)]
            good = Op("semigroup-good <%s> %s" % (text, values), lambda a=good_argv: run_cli(a))
            self.inputs[id(report)] = (gens, None)
            self.inputs[id(good)] = (gens, values)
            self.ops.extend((report, good))

    def check_op(self, op):
        gens, values = self.inputs[id(op)]
        result = cli_payload(op)["result"]
        if values is None:
            return oracles.check_semigroup_report(gens, result)
        return oracles.check_semigroup_good(gens, values, result)


WORKLOADS = {
    "verify_catalog": VerifyCatalog,
    "functor_ladder": FunctorLadder,
    "semigroup_reports": SemigroupReports,
}
