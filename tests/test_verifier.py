"""Suite harness: passing catalogs, the mutation self-test, determinism."""

import gc
import json
import os
import pickle
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from tracelab import cli, verifier
from tracelab.artin import annihilator, ideal_from_elements, ideal_times_module, torsion_submodule
from tracelab.errors import EnumerationCapExceeded, ParseError
from tracelab.homological import cotrace, trace
from tracelab.verifier import (
    AlgebraSpec,
    Failure,
    InstanceSpec,
    SuiteResult,
    _built,
    canonical_modules,
    corrupted_trace,
    default_catalog,
    run_suites,
    suite_section1,
    suite_section2,
    suite_section3,
)

SMALL = InstanceSpec(
    algebras=(
        AlgebraSpec("f2_dual", "F2", ("x",), ("x^2",)),
        AlgebraSpec("f2_fat", "F2", ("x", "y"), ("x^2", "x*y", "y^2")),
        AlgebraSpec("q_jet3", "Q", ("x",), ("x^3",)),
    ),
    semigroups=((1,), (2, 3), (3, 4)),
    duality_samples=10,
    colon_route_samples=3,
    random_modules=2,
    sampled_ideals=3,
)


def test_default_catalog_contents():
    spec = default_catalog()
    names = {a.name for a in spec.algebras}
    assert len(spec.algebras) == 19
    assert {"q_dual", "f2_fat", "f3_mixed", "f2_quadrics3"} <= names
    assert (3, 4) in spec.semigroups and len(spec.semigroups) == 7


def test_small_catalog_all_suites_pass():
    for result in run_suites(SMALL):
        assert result.passed, result.failures[:2]
        assert result.checks > 0


def test_suite_results_serialize_without_elapsed():
    result = suite_section2(SMALL)
    payload = result.to_json()
    assert set(payload) == {"suite", "checks", "passed", "failures"}


def test_a_result_with_a_failure_crosses_a_pickle():
    # What a verify worker sends back through its result pipe.
    failure = Failure("trace", {"algebra": SMALL.algebras[0].to_json()}, {"ambient_dim": 2, "dim": 1}, None, "x")
    result = SuiteResult("section1", 7, (failure,), 0.25)
    back = pickle.loads(pickle.dumps(result))
    assert back == result and type(back.failures[0]) is Failure
    assert back.to_json() == result.to_json() and not back.passed


def test_record_defaults():
    spec = InstanceSpec(algebras=(), semigroups=())
    defaults = (spec.seed, spec.duality_samples, spec.colon_route_samples, spec.random_modules)
    assert defaults + (spec.sampled_ideals, spec.submodule_cap) == (20260810, 100, 10, 3, 6, 4096)
    failure = Failure("check", {})
    assert (failure.left, failure.right, failure.note) == (None, None, "")
    assert failure.to_json() == {"check": "check", "instance": {}}


def test_built_memoises_the_algebra_on_its_spec():
    aspec = AlgebraSpec("f2_dual", "F2", ("x",), ("x^2",))
    algebra = _built(aspec)
    assert _built(aspec) is algebra
    assert list(aspec._memo.values()) == [algebra]


def test_mutation_is_caught_with_witness():
    result = suite_section1(SMALL, trace_fn=corrupted_trace)
    assert not result.passed
    assert any(f.left is not None and f.right is not None for f in result.failures)
    for f in result.failures:
        assert "algebra" in f.instance
        assert f.instance["algebra"]["relations"]


def test_mutation_failure_reconstructible():
    result = suite_section1(SMALL, trace_fn=corrupted_trace)
    f = next(f for f in result.failures if f.left is not None)
    blob = json.dumps(f.to_json(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["instance"]["algebra"]["field"] in ("F2", "Q")
    assert "basis_columns" in parsed["left"]


def test_deterministic_results():
    a = [r.to_json() for r in run_suites(SMALL)]
    b = [r.to_json() for r in run_suites(SMALL)]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(SMALL, suites=("section9",))


def _assert_no_child():
    """This process has no child at all, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _on_both_routes(monkeypatch, spec, suites=("section1", "section2", "section3")):
    """run_suites' JSON, or the exception it raised, with the per-algebra jobs
    in this process and then over two forked workers; no worker outlives a
    call."""
    outcomes = []
    for workers in (1, 2):
        monkeypatch.setattr(verifier, "_worker_count", lambda jobs: workers)
        try:
            outcomes.append([r.to_json() for r in run_suites(spec, suites)])
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
        _assert_no_child()
    return outcomes


@pytest.mark.parametrize(
    "suites",
    [("section1", "section2", "section3"), ("section1",), ("section3",), ("section3", "section1")],
)
def test_workers_give_the_in_process_results(monkeypatch, suites):
    in_process, pooled = _on_both_routes(monkeypatch, SMALL, suites)
    assert [r["suite"] for r in in_process] == list(suites)
    assert pooled == in_process


def test_failures_with_witnesses_cross_from_the_workers(monkeypatch):
    monkeypatch.setattr(verifier._section1_on, "__defaults__", (corrupted_trace,))
    in_process, pooled = _on_both_routes(monkeypatch, SMALL, ("section1", "section3"))
    assert any("left" in f and "right" in f for f in in_process[0]["failures"])
    assert pooled == in_process


def test_workers_take_a_spec_whose_memo_is_filled(monkeypatch):
    # Jobs are algebra indices and the spec reaches the workers by fork: a
    # spec holding its built algebras does not pickle.
    spec = SMALL._replace(algebras=tuple(AlgebraSpec(a.name, a.field, a.variables, a.relations) for a in SMALL.algebras))
    for aspec in spec.algebras:
        _built(aspec)
    with pytest.raises(pickle.PicklingError):
        pickle.dumps(spec)
    in_process, pooled = _on_both_routes(monkeypatch, spec)
    assert pooled == in_process


def test_an_algebra_that_fails_to_build_raises_alike_on_both_routes(monkeypatch):
    bad = AlgebraSpec("bad", "F2", ("x",), ("x^2 +",))
    spec = SMALL._replace(algebras=SMALL.algebras[:2] + (bad,) + SMALL.algebras[2:])
    for suites in (("section1", "section3"), ("section3",)):
        in_process, pooled = _on_both_routes(monkeypatch, spec, suites)
        assert in_process[0] is ParseError
        assert pooled == in_process


def test_a_jobs_error_crosses_the_pipe_intact(monkeypatch):
    # Jobs run largest algebra first, f2_dual last: q_jet3's error is the
    # first in job order though f2_dual comes first in the catalog.
    errors = {"f2_dual": EnumerationCapExceeded("cap hit on f2_dual"), "q_jet3": ParseError("bad q_jet3")}
    section1_on = verifier._section1_on

    def failing_section1_on(spec, aspec):
        if aspec.name in errors:
            raise errors[aspec.name]
        return section1_on(spec, aspec)

    monkeypatch.setitem(verifier._ON_ALGEBRA, "section1", failing_section1_on)
    assert _on_both_routes(monkeypatch, SMALL) == [(ParseError, "bad q_jet3")] * 2


def test_a_dead_worker_raises_and_leaves_no_process(monkeypatch):
    def section3_on(spec, aspec):
        os._exit(3)

    monkeypatch.setattr(verifier, "_worker_count", lambda jobs: 2)
    monkeypatch.setitem(verifier._ON_ALGEBRA, "section3", section3_on)
    with pytest.raises(BrokenProcessPool):
        run_suites(SMALL, ("section1", "section3"))
    _assert_no_child()


def test_a_dead_worker_is_a_json_error_from_the_cli(monkeypatch, capsys):
    def section3_on(spec, aspec):
        os._exit(3)

    monkeypatch.setattr(verifier, "_worker_count", lambda jobs: 2)
    monkeypatch.setitem(verifier._ON_ALGEBRA, "section3", section3_on)
    assert cli.main(["verify", "--suite", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == "BrokenProcessPool"
    _assert_no_child()


def test_job_order_never_reaches_the_report(monkeypatch):
    # Jobs run largest algebra first; the report lists algebras, and so the
    # corrupted trace's failures, as the spec does.
    monkeypatch.setattr(verifier._section1_on, "__defaults__", (corrupted_trace,))
    by_dim = sorted(SMALL.algebras, key=lambda a: _built(a).dim)
    assert [_built(a).dim for a in by_dim] == [2, 3, 3]
    for algebras in (by_dim, by_dim[::-1]):
        spec = SMALL._replace(algebras=tuple(algebras))
        in_order = [suite_section1(spec, trace_fn=corrupted_trace).to_json(), suite_section3(spec).to_json()]
        assert len({f["instance"]["algebra"]["name"] for f in in_order[0]["failures"]}) == 3
        assert _on_both_routes(monkeypatch, spec, ("section1", "section3")) == [in_order] * 2


def test_section2_runs_beside_the_workers_and_fails_cleanly(monkeypatch):
    # Section 2's algebra checks run in the jobs; its semigroup part runs
    # here while the workers exist, and its error stops them.
    fork, forked, seen = os.fork, [], []

    def counted_fork():
        forked.append(fork())
        return forked[-1]

    def section2(spec):
        seen.append((spec.algebras, sum(os.kill(pid, 0) is None for pid in forked)))
        raise RuntimeError("section 2 failed")

    monkeypatch.setattr(verifier, "_worker_count", lambda jobs: 2)
    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(verifier, "suite_section2", section2)
    with pytest.raises(RuntimeError, match="section 2 failed"):
        run_suites(SMALL)
    assert seen == [((), 2)]
    _assert_no_child()


def test_each_job_runs_section2_last(monkeypatch):
    # Section 2's algebra checks then find what sections 1 and 3 memoised.
    calls = []

    def recorded(name, on):
        return lambda spec, aspec: calls.append(name) or on(spec, aspec)

    for name, on in list(verifier._ON_ALGEBRA.items()):
        monkeypatch.setitem(verifier._ON_ALGEBRA, name, recorded(name, on))
    monkeypatch.setattr(verifier, "_worker_count", lambda jobs: 1)
    run_suites(SMALL, ("section2", "section3", "section1"))
    assert calls == ["section3", "section1", "section2"] * len(SMALL.algebras)


def test_workers_freeze_their_heap_and_leave_the_callers_collector(monkeypatch):
    def section1_on(spec, aspec):
        return SuiteResult("section1", int(gc.get_freeze_count() > 0), (), 0.0)

    before = gc.get_freeze_count(), gc.isenabled()
    monkeypatch.setattr(verifier, "_worker_count", lambda jobs: 2)
    monkeypatch.setitem(verifier._ON_ALGEBRA, "section1", section1_on)
    frozen, section2 = run_suites(SMALL, ("section1", "section2"))
    assert frozen.checks == len(SMALL.algebras)
    assert section2.passed and section2.checks > 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


class _Alarm(BaseException):
    pass


def test_an_alarm_leaves_no_worker_behind(monkeypatch):
    def on_alarm(signum, frame):
        raise _Alarm()

    monkeypatch.setattr(verifier, "_worker_count", lambda jobs: 2)
    spec = default_catalog()
    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.1)
        with pytest.raises(_Alarm):
            run_suites(spec, ("section1", "section3"))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    _assert_no_child()


def test_section3_handles_redundant_relations():
    spec = InstanceSpec(
        algebras=(AlgebraSpec("dup", "F2", ("x",), ("x^2", "x^3")),),
        semigroups=(),
        duality_samples=5,
        colon_route_samples=2,
        random_modules=1,
    )
    assert suite_section3(spec).passed


@pytest.mark.parametrize("seed", [6, 7])
def test_sampled_qf_check_needs_no_witness(seed):
    # No sampled ideal of q_fat is a witness at these seeds; a sampled verdict
    # cannot prove excellence, so section1 must not report a failure.
    spec = default_catalog(seed=seed)
    spec = spec._replace(algebras=tuple(a for a in spec.algebras if a.name == "q_fat"))
    result = suite_section1(spec)
    assert result.passed, result.failures[:2]


# Each check on excellent and coexcellent modules compares two subspaces that
# agree on every module its hypothesis covers; on f2_fat, which is not QF,
# each pair differs on a module outside the hypothesis.  m = (x, y), Ann(x) = m.
def _excellent_for_max_ideal(m, x, ann_x, modules):
    # m maps onto k = R/m, so trace(m, k) = k, while mk = 0.
    k = modules["R/m"]
    return trace(m, k).carrier, ideal_times_module(m, k).carrier


def _excellent_principal_image_is_annihilator_torsion(m, x, ann_x, modules):
    # xR is one-dimensional, R[Ann x] = R[m] is the two-dimensional socle.
    R = modules["R"]
    return ideal_times_module(x, R).carrier, torsion_submodule(R, ann_x).carrier


def _coexcellent_for_ideal(m, x, ann_x, modules):
    # k embeds into dual(m), so cotrace(m, k) = 0, while k[m] = k.
    k = modules["R/m"]
    return cotrace(m, k).carrier, torsion_submodule(k, m).carrier


def _coexcellent_principal_torsion_is_annihilator_image(m, x, ann_x, modules):
    # k[x] = k, while Ann(x)k = mk = 0.
    k = modules["R/m"]
    return torsion_submodule(k, x).carrier, ideal_times_module(ann_x, k).carrier


@pytest.mark.parametrize(
    "sides",
    [
        _excellent_for_max_ideal,
        _excellent_principal_image_is_annihilator_torsion,
        _coexcellent_for_ideal,
        _coexcellent_principal_torsion_is_annihilator_image,
    ],
    ids=lambda f: f.__name__[1:],
)
def test_excellence_checks_fail_outside_their_hypothesis(sides):
    algebra = _built(SMALL.algebras[1])
    modules = {desc["label"]: module for module, desc in canonical_modules(algebra)}
    x = ideal_from_elements(algebra, ["x"])
    ann_x = annihilator(x.as_module())
    assert ann_x.carrier == algebra.max_ideal().carrier
    left, right = sides(algebra.max_ideal(), x, ann_x, modules)
    assert left != right
