"""Acceptance criteria, one test per criterion, one printed line each.

Every tolerance is exact (canonical-form equality); the stated wall-clock
budgets are asserted where the criterion names one.  Run with `pytest -s
tests/test_acceptance.py` to see the status lines.
"""

import hashlib
import json
import random
import time

import pytest

from tracelab import verifier
from tracelab.artin import (
    Submodule,
    annihilator,
    enumerate_cyclic_ideals,
    enumerate_submodules,
    free_module,
    ideal_from_elements,
    ideal_times_module,
    module_from_presentation,
    regular_module,
    socle,
    torsion_submodule,
)
from tracelab.cli import main as cli_main
from tracelab.homological import (
    ann_in_dual,
    cotrace,
    embed_into_injective,
    excellence_verdict,
    ext1,
    has_commutative_endomorphisms,
    is_homothety_onto,
    is_ideal_coexcellent,
    is_ideal_excellent,
    is_quasi_frobenius,
    is_tensor_eval_injective,
    matlis_dual,
    tor1,
    trace,
    trace_via_colon,
)
from tracelab.linalg import Subspace
from tracelab.semigroup import (
    first_neighborhood_inverse,
    is_dvr,
    is_good,
    make,
    matlis_report,
    maximal_ideal,
    nu_index,
    power_m,
    trace_value,
    ValueSet,
)
from tracelab.verifier import (
    InstanceSpec,
    _built,
    corrupted_trace,
    default_catalog,
    ideal_pool,
    module_pool,
    random_module_presentations,
    random_poly_string,
    suite_section1,
)

CATALOG = default_catalog()


def _report(name, ok, t0, budget=None, detail=""):
    elapsed = time.perf_counter() - t0
    print("ACCEPTANCE %-46s %s (%.2fs)%s" % (name, "PASS" if ok else "FAIL", elapsed, detail))
    assert ok, name
    if budget is not None:
        assert elapsed < budget, "budget exceeded: %.2fs >= %ss" % (elapsed, budget)


def _algebras(field_names):
    return [a for a in CATALOG.algebras if a.field in field_names]


def _modules_for(algebra):
    reg = regular_module(algebra)
    out = [reg, matlis_dual(reg).rep, free_module(algebra, 2)]
    if algebra.dim > 1:
        out.append(module_from_presentation(algebra, [list(algebra.variables)]))
    return out


def test_qf_iff_excellent_exhaustive():
    # Exhaustive cyclic-ideal excellence agrees with the simple-socle test
    # on every finite-field catalog algebra.
    t0 = time.perf_counter()
    ok = True
    count = 0
    for aspec in _algebras({"F2", "F3"}):
        algebra = _built(aspec)
        verdict = excellence_verdict(regular_module(algebra))
        assert verdict.evidence == "exhaustive"
        ok = ok and (verdict.holds == is_quasi_frobenius(algebra))
        count += 1
    _report("qf_iff_excellent_exhaustive", ok and count == 13, t0, budget=10)


def test_qf_iff_commutative_endomorphisms():
    # Full ideal lattice over F2, dims <= 5.
    t0 = time.perf_counter()
    ok = True
    for aspec in _algebras({"F2"}):
        algebra = _built(aspec)
        assert algebra.dim <= 5
        reg = regular_module(algebra)
        ideals = enumerate_submodules(reg)
        commutative = all(has_commutative_endomorphisms(i) for i in ideals)
        ok = ok and ((socle(reg).dim != 0 and commutative) == is_quasi_frobenius(algebra))
    _report("qf_iff_commutative_endomorphisms", ok, t0, budget=60)


def test_duality_exchange_on_random_instances():
    # trace(I, dual M) = Ann(cotrace(I, M)) and the mirrored identity, on
    # at least 100 seeded random (I, M) instances per rational catalog
    # algebra; equality of canonical subspaces, no tolerance.
    t0 = time.perf_counter()
    ok = True
    per_algebra = []
    for aspec in _algebras({"Q"}):
        algebra = _built(aspec)
        pool_i = ideal_pool(algebra, CATALOG, "acc3")
        pool_m = module_pool(algebra, CATALOG, "acc3")
        battery = [(i, m) for i, _ in pool_i for m, _ in pool_m]
        rng = random.Random("acceptance3:%s" % (aspec.name,))
        while len(battery) < 100:
            rows = random_module_presentations(algebra, rng, 1)[0]
            module = module_from_presentation(algebra, rows)
            ideal_sub = ideal_from_elements(algebra, [random_poly_string(algebra, rng)])
            battery.append((ideal_sub, module))
        for ideal_sub, module in battery:
            dual = matlis_dual(module)
            left_a = trace(ideal_sub, dual.rep).carrier
            right_a = ann_in_dual(dual, cotrace(ideal_sub, module)).carrier
            left_b = cotrace(ideal_sub, dual.rep).carrier
            right_b = ann_in_dual(dual, trace(ideal_sub, module)).carrier
            ok = ok and left_a == right_a and left_b == right_b
        per_algebra.append(len(battery))
    _report(
        "duality_exchange_random_instances",
        ok and len(per_algebra) == 6 and all(n >= 100 for n in per_algebra),
        t0,
        budget=60,
        detail=" instances=%s" % per_algebra,
    )


def test_ext1_tor1_vanishing_criteria_exhaustive_f2():
    # Ext1(R/I, M) = 0 iff (excellent and homothety onto);
    # Tor1(M, R/I) = 0 iff (coexcellent and tensor evaluation injective).
    t0 = time.perf_counter()
    ok = True
    count = 0
    for aspec in _algebras({"F2"}):
        algebra = _built(aspec)
        ideals = list(enumerate_cyclic_ideals(algebra))
        if algebra.dim <= 4:
            ideals = list(enumerate_submodules(regular_module(algebra)))
        for module in _modules_for(algebra):
            for ideal_sub in ideals:
                ok = ok and (ext1(ideal_sub, module).dim == 0) == (
                    is_ideal_excellent(ideal_sub, module)
                    and is_homothety_onto(ideal_sub, module)
                )
                ok = ok and (tor1(module, ideal_sub).dim == 0) == (
                    is_ideal_coexcellent(ideal_sub, module)
                    and is_tensor_eval_injective(module, ideal_sub)
                )
                count += 1
    _report("ext1_tor1_vanishing_criteria", ok, t0, detail=" instances=%d" % count)


def test_duality_dimension_law():
    # dim Ext1(R/I, dual M) = dim Tor1(M, R/I) on every instance computed
    # here: exhaustive over F2, sampled over Q.
    t0 = time.perf_counter()
    ok = True
    count = 0
    for aspec in CATALOG.algebras:
        algebra = _built(aspec)
        if algebra.field.is_finite:
            if algebra.field.name != "F2":
                continue
            ideals = list(enumerate_cyclic_ideals(algebra))
        else:
            ideals = [i for i, _ in ideal_pool(algebra, CATALOG, "acc5")]
        for module in _modules_for(algebra):
            dual = matlis_dual(module).rep
            for ideal_sub in ideals:
                ok = ok and ext1(ideal_sub, dual).dim == tor1(module, ideal_sub).dim
                count += 1
    _report("duality_dimension_law", ok, t0, detail=" instances=%d" % count)


SEMIGROUP_ACCEPTANCE = [(2, 3), (2, 5), (3, 4), (3, 5, 7), (4, 5, 6, 7), (5, 6, 9)]


def _oracle_stable_traces(gens, nu, n_max):
    """Brute-force m^n * (m^n)^(-1) from raw clipped integer sets."""
    hi = 700
    hit = {0}
    for n in range(1, hi):
        if any(g <= n and (n - g) in hit for g in gens):
            hit.add(n)
    conductor = next(c for c in range(hi) if all(k in hit for k in range(c, c + 2 * max(gens))))
    m_raw = {x for x in hit if 0 < x}
    out = {}
    p = set(m_raw)
    for n in range(2, n_max + 1):
        p = {a + b for a in p for b in m_raw if a + b < hi}
        if n >= nu:
            inv = {
                z
                for z in range(-hi // 2, hi // 2)
                if all((z + y) in hit for y in p if z + y < conductor)
            }
            out[n] = {a + b for a in p for b in inv if -60 <= a + b < 200}
    return out


def test_stable_trace_law_with_oracle():
    t0 = time.perf_counter()
    ok = True
    for gens in SEMIGROUP_ACCEPTANCE:
        s = make(gens)
        nu = nu_index(s)
        report = matlis_report(s, nu + 4)
        ok = ok and report.stable_trace_ok
        oracle = _oracle_stable_traces(gens, nu, nu + 4)
        lam_inv = first_neighborhood_inverse(s)
        for n in range(max(2, nu), nu + 5):
            got = set(trace_value(power_m(s, n), s).elements_below(200))
            got = {x for x in got if x >= -60}
            if n in oracle:
                ok = ok and got == oracle[n]
            ok = ok and trace_value(power_m(s, n), s) == lam_inv
    # Pinned expectations, verified by hand.
    s34 = make([3, 4])
    ok = ok and s34.multiplicity == 3 and nu_index(s34) == 2
    ok = ok and first_neighborhood_inverse(s34) == ValueSet(6, []) == power_m(s34, 2)
    s357 = make([3, 5, 7])
    ok = ok and s357.multiplicity == 3 and nu_index(s357) == 1
    ok = ok and first_neighborhood_inverse(s357) == maximal_ideal(s357)
    _report("stable_trace_law_with_oracle", ok, t0, budget=5)


def test_two_generated_maximal_ideal_clause():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for gens in CATALOG.semigroups:
        s = make(gens)
        if s.embedding_dimension != 2:
            continue
        e = s.multiplicity
        ok = ok and nu_index(s) == e - 1
        ok = ok and first_neighborhood_inverse(s) == power_m(s, e - 1)
        checked += 1
    _report("two_generated_stable_power", ok and checked >= 3, t0, detail=" semigroups=%d" % checked)


def test_maximal_ideal_good_iff_not_dvr():
    t0 = time.perf_counter()
    ok = True
    for gens in CATALOG.semigroups:
        s = make(gens)
        ok = ok and is_good(maximal_ideal(s), s) == (not is_dvr(s))
    _report("maximal_ideal_good_iff_not_dvr", ok, t0)


def test_sandwich_invariants_everywhere():
    # IM <= trace <= M[Ann I] and Ann(I)M <= cotrace <= M[I] on every
    # instance of a mixed exhaustive/sampled battery.
    t0 = time.perf_counter()
    ok = True
    count = 0
    for aspec in CATALOG.algebras:
        algebra = _built(aspec)
        ideals = [i for i, _ in ideal_pool(algebra, CATALOG, "acc9")]
        for module in _modules_for(algebra):
            for ideal_sub in ideals:
                ideal_rep = ideal_sub.as_module()
                tr = trace(ideal_sub, module).carrier
                co = cotrace(ideal_sub, module).carrier
                im = ideal_times_module(ideal_sub, module).carrier
                upper_t = torsion_submodule(module, annihilator(ideal_rep)).carrier
                ann_m = ideal_times_module(annihilator(ideal_rep), module).carrier
                upper_c = torsion_submodule(module, ideal_sub).carrier
                ok = ok and tr.contains(im) and upper_t.contains(tr)
                ok = ok and co.contains(ann_m) and upper_c.contains(co)
                count += 1
    _report("sandwich_invariants", ok, t0, detail=" instances=%d" % count)


def test_two_route_trace_agreement():
    # Definitional trace vs the colon route through an injective extension.
    t0 = time.perf_counter()
    ok = True
    count = 0
    for aspec in CATALOG.algebras:
        if aspec.field == "F3":
            continue
        algebra = _built(aspec)
        ideals = ideal_pool(algebra, CATALOG, "acc10")[:5]
        modules = module_pool(algebra, CATALOG, "acc10")[:4]
        for ideal_sub, _ in ideals:
            for module, _ in modules:
                injective, incl = embed_into_injective(module)
                member = Submodule(
                    injective,
                    Subspace.from_vectors(
                        algebra.field, injective.dim, incl.cols()
                    ),
                    check=False,
                )
                routed = trace_via_colon(member, ideal_sub).carrier
                mapped = Subspace.from_vectors(
                    algebra.field,
                    injective.dim,
                    [incl.apply(c) for c in trace(ideal_sub, module).carrier.rows],
                )
                ok = ok and routed == mapped
                count += 1
    _report("two_route_trace_agreement", ok and count >= 50, t0, detail=" instances=%d" % count)


def test_harness_self_test():
    # A deliberately corrupted trace (one hom basis vector dropped) must be
    # flagged with a serialized counterexample.
    t0 = time.perf_counter()
    small = InstanceSpec(
        algebras=tuple(a for a in CATALOG.algebras if a.name in ("f2_fat", "f2_dual")),
        semigroups=(),
        random_modules=1,
        sampled_ideals=2,
    )
    result = suite_section1(small, trace_fn=corrupted_trace)
    witnessed = [f for f in result.failures if f.left is not None and f.right is not None]
    ok = (
        not result.passed
        and bool(witnessed)
        and all("algebra" in f.instance for f in result.failures)
    )
    payload = json.dumps(witnessed[0].to_json(), sort_keys=True)
    ok = ok and "basis_columns" in payload
    _report("harness_self_test", ok, t0, detail=" failures=%d" % len(result.failures))


def test_verify_is_deterministic(capsys):
    t0 = time.perf_counter()
    code1 = cli_main(["verify", "--seed", "20260810"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["verify", "--seed", "20260810"])
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1 == out2 and len(out1) > 0
    _report("verify_byte_identical", ok, t0)
    # The canonical report at the default seed is pinned byte for byte.
    digest = hashlib.sha256(out1.encode("utf-8")).hexdigest()
    assert digest == "5c63178d833783eaab84173f0dfb853b1c1ba6bcdd7f029543dcda1bcfd887d4"


@pytest.mark.parametrize("workers", [1, 2])
def test_verify_is_pinned_on_both_routes(monkeypatch, capsys, workers):
    # One process, or a pool of two, whatever CPUs this machine has.
    monkeypatch.setattr(verifier, "_worker_count", lambda jobs: workers)
    assert cli_main(["verify", "--suite", "all", "--seed", "20260810"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "5c63178d833783eaab84173f0dfb853b1c1ba6bcdd7f029543dcda1bcfd887d4"


def test_verify_at_a_second_seed_is_pinned(capsys):
    # Seed 6 samples other ideals than the default seed, so modules are
    # shared in other patterns; its report is pinned byte for byte too.
    assert cli_main(["verify", "--suite", "all", "--seed", "6"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "8a6546a654c41f774a6bb6a09701431c8c57a5bbb1322dff831ecd745f7717f2"
