"""Executable theorem suites over exhaustive and seeded-random instances.

Three suites mirror the three bodies of theory: section1 covers the trace
submodule (sandwich, vanishing, cyclic formulas, the Ext1 criterion, closure
under sums, the properties of excellent modules, and QF <=> excellent);
section2 covers the ring case (good ideals, endomorphism commutativity, and
the semigroup model with the stable-trace law); section3 covers the dual
picture (cotrace, Tor1, Matlis duality exchange, summand and quotient
compatibility, coexcellent modules).

Instance streams are deterministic: the same InstanceSpec always produces
the same stream and therefore byte-identical results.  Every failure record
carries the full instance description (algebra presentation, module
presentation or canonical label, ideal generators) plus the two unequal
canonical subspaces, enough to reconstruct the instance exactly.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import os
import random
import sys
import threading
import time
from importlib import resources
from typing import NamedTuple

from .artin import (
    PolynomialPresentation,
    Submodule,
    _memoised,
    annihilator,
    build_algebra,
    direct_sum,
    enumerate_cyclic_ideals,
    enumerate_submodules,
    free_module,
    ideal_from_elements,
    ideal_times_module,
    ideal_times_submodule,
    is_essential,
    is_small,
    minimal_generators,
    module_from_presentation,
    regular_module,
    socle,
    span_submodule,
    torsion_submodule,
)
from .artin import colon as colon_submodule
from .errors import EnumerationCapExceeded
from .homological import (
    ann_in_dual,
    coexcellence_verdict,
    cotrace,
    dense_hom_space,
    embed_into_injective,
    excellence_verdict,
    ext1,
    has_commutative_endomorphisms,
    hom_module,
    is_cyclic_ideal,
    is_homothety_onto,
    is_ideal_coexcellent,
    is_ideal_excellent,
    is_quasi_frobenius,
    is_tensor_eval_injective,
    matlis_dual,
    tensor_product,
    tor1,
    trace,
    trace_via_colon,
)
from .linalg import Subspace
from .semigroup import (
    ValueSet,
    colon,
    ext1_dim,
    ideal,
    inverse,
    is_dvr,
    is_good,
    make,
    matlis_report,
    maximal_ideal,
    power_m,
    self_colon_eq_inverse,
    sumset,
    trace_value,
)
from .textio import parse_sections, presentation_from_section


class AlgebraSpec:
    """A reconstructible algebra description (echoed into failure reports).

    `_built` memoises its algebra on it, freed with the spec; specs compare
    by identity.  A spec holding its algebra does not pickle: `run_suites`
    hands it to workers by fork.
    """

    __slots__ = ("name", "field", "variables", "relations", "_memo")

    def __init__(self, name, field, variables, relations):
        self.name, self.field, self.variables, self.relations = name, field, variables, relations

    def to_json(self):
        return {
            "name": self.name,
            "field": self.field,
            "variables": list(self.variables),
            "relations": list(self.relations),
        }


class InstanceSpec(NamedTuple):
    """What to run the suites on; identical specs give identical streams."""

    algebras: tuple
    semigroups: tuple
    seed: int = 20260810
    duality_samples: int = 100  # random (I, M) pairs per Q-algebra in section3
    colon_route_samples: int = 10  # injective-embedding route checks per algebra
    random_modules: int = 3
    sampled_ideals: int = 6
    submodule_cap: int = 4096

    def to_json(self):
        return {
            "algebras": [a.to_json() for a in self.algebras],
            "semigroups": [list(s) for s in self.semigroups],
            "seed": self.seed,
            "duality_samples": self.duality_samples,
            "colon_route_samples": self.colon_route_samples,
            "random_modules": self.random_modules,
            "sampled_ideals": self.sampled_ideals,
            "submodule_cap": self.submodule_cap,
        }


class Failure(NamedTuple):
    check: str
    instance: dict
    left: dict | None = None
    right: dict | None = None
    note: str = ""

    def to_json(self):
        out = {"check": self.check, "instance": self.instance}
        if self.left is not None:
            out["left"] = self.left
        if self.right is not None:
            out["right"] = self.right
        if self.note:
            out["note"] = self.note
        return out


class SuiteResult(NamedTuple):
    suite: str
    checks: int
    failures: tuple
    elapsed: float

    @property
    def passed(self):
        return not self.failures

    def to_json(self):
        # elapsed is deliberately omitted so reports are byte-reproducible.
        return {
            "suite": self.suite,
            "checks": self.checks,
            "passed": self.passed,
            "failures": [f.to_json() for f in self.failures],
        }


def subspace_json(sub):
    """Canonical serialization of a Subspace (field-aware entries)."""
    return {
        "ambient_dim": sub.ambient_dim,
        "dim": sub.dim,
        "basis_columns": list(map(sub.field.row_json, sub.rows)),
    }


class _Recorder:
    def __init__(self, suite):
        self.suite = suite
        self.checks = 0
        self.failures = []
        self.started = time.perf_counter()

    def check(self, name, instance, ok, left=None, right=None, note=""):
        self.checks += 1
        if not ok:
            self.failures.append(
                Failure(
                    name,
                    dict(instance),
                    subspace_json(left) if left is not None else None,
                    subspace_json(right) if right is not None else None,
                    note,
                )
            )

    def equal(self, name, instance, left, right):
        """Record equality of two canonical subspaces, serializing both on failure."""
        self.check(name, instance, left == right, left, right)

    def result(self):
        return SuiteResult(
            self.suite, self.checks, tuple(self.failures), time.perf_counter() - self.started
        )


def _merged(suite, parts):
    """One suite's result from its parts (per algebra, in catalog order), timed where they ran."""
    failures = tuple(f for p in parts for f in p.failures)
    return SuiteResult(suite, sum(p.checks for p in parts), failures, sum(p.elapsed for p in parts))


# -- the default catalog ---------------------------------------------------------


def load_algebra_file(path_like, name):
    text = path_like.read_text(encoding="utf-8")
    sections = parse_sections(text, source=name)
    pres = presentation_from_section(sections["algebra"], source=name)
    return AlgebraSpec(
        name,
        pres.field.name,
        pres.variables,
        pres.relations,
    )


def default_catalog(seed=20260810):
    """The checked-in catalog: Q/F2/F3 algebras plus the semigroup list."""
    base = resources.files("tracelab") / "catalog"
    algebras = []
    for entry in sorted(base.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".ring"):
            algebras.append(load_algebra_file(entry, entry.name[: -len(".ring")]))
    semigroups = []
    for line in (base / "semigroups.txt").read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            semigroups.append(tuple(int(g) for g in line.split(",")))
    return InstanceSpec(algebras=tuple(algebras), semigroups=tuple(semigroups), seed=seed)


@_memoised("spec")
def _built(spec: AlgebraSpec):
    return build_algebra(PolynomialPresentation(spec.field, spec.variables, spec.relations))


# -- instance streams --------------------------------------------------------------


def _rng(spec_seed, *tags):
    return random.Random("tracelab:%s:%s" % (spec_seed, ":".join(str(t) for t in tags)))


def _monomial_strings(variables):
    """The monomials of degree 1 and 2, each as "x" or "x*y"."""
    return ["*".join(c) for d in (1, 2) for c in itertools.combinations_with_replacement(variables, d)]


def random_poly_string(algebra, rng):
    """A reproducible random polynomial string with small coefficients."""
    monos = _monomial_strings(algebra.variables)
    field = algebra.field
    terms = []
    for _ in range(rng.randint(1, 2)):
        mono = monos[rng.randrange(len(monos))] if monos else "1"
        if field.is_finite:
            coeff = rng.randrange(field.order)
        else:
            coeff = rng.randint(-2, 2)
        if coeff:
            terms.append((coeff, mono))
    if not terms:
        return "0"
    parts = []
    for i, (coeff, mono) in enumerate(terms):
        sign = "-" if coeff < 0 else ("+" if i else "")
        mag = abs(coeff)
        body = mono if mag == 1 else "%d*%s" % (mag, mono)
        parts.append((sign + " " if sign and i else sign) + body)
    return " ".join(parts)


def random_module_presentations(algebra, rng, count):
    """Random cokernel presentations; rows 1..2, columns 1..3, degree <= 2."""
    out = []
    for _ in range(count):
        n_gens = rng.randint(1, 2)
        n_cols = rng.randint(1, 3)
        rows = [
            [random_poly_string(algebra, rng) for _ in range(n_cols)]
            for _ in range(n_gens)
        ]
        out.append(rows)
    return out


def canonical_modules(algebra):
    """(module, description) pairs every suite starts from."""
    reg = regular_module(algebra)
    dual = matlis_dual(reg).rep
    out = [
        (reg, {"label": "R"}),
        (dual, {"label": "dual(R)"}),
        (free_module(algebra, 2), {"label": "R^2"}),
    ]
    if algebra.dim > 1:
        k = module_from_presentation(algebra, [[v for v in algebra.variables]])
        out.append((k, {"label": "R/m", "presentation": [list(algebra.variables)]}))
    return out


def module_pool(algebra, spec, suite_tag):
    rng = _rng(spec.seed, suite_tag, "modules", algebra.field.name, algebra.variables,
               algebra.presentation.relations)
    pool = list(canonical_modules(algebra))
    for rows in random_module_presentations(algebra, rng, spec.random_modules):
        pool.append((module_from_presentation(algebra, rows), {"presentation": rows}))
    return pool


def ideal_pool(algebra, spec, suite_tag):
    """(ideal, description) pairs: exhaustive cyclic over F_p, sampled over Q."""
    if algebra.field.is_finite:
        ideals = enumerate_cyclic_ideals(algebra)
        return [(i, {"ideal": _ideal_desc(algebra, i), "evidence": "exhaustive"}) for i in ideals]
    rng = _rng(spec.seed, suite_tag, "ideals", algebra.variables, algebra.presentation.relations)
    pool = [
        (ideal_from_elements(algebra, []), {"ideal": ["0"]}),
        (algebra.max_ideal(), {"ideal": ["<maximal>"]}),
        (ideal_from_elements(algebra, ["1"]), {"ideal": ["1"]}),
    ]
    for _ in range(spec.sampled_ideals):
        gens = [random_poly_string(algebra, rng)]
        if rng.random() < 0.3:
            gens.append(random_poly_string(algebra, rng))
        pool.append((ideal_from_elements(algebra, gens), {"ideal": gens}))
    return pool


def _ideal_desc(algebra, ideal_sub):
    return [algebra.element_label(c) for c in ideal_sub.carrier.rows]


def ideal_sum(a, b):
    """I + J: a sum of submodules is a submodule, so its carrier is the sum."""
    return Submodule(a.module, a.carrier.sum(b.carrier), check=False)


def _element_samples(algebra, spec, tag):
    """Sample ring elements: the variables, 1, and two seeded random ones."""
    out = [algebra.parse_element(v) for v in algebra.variables]
    out.append(algebra.unit)
    rng = _rng(spec.seed, tag, "elements", algebra.variables, algebra.presentation.relations)
    for _ in range(2):
        out.append(algebra.parse_element(random_poly_string(algebra, rng)))
    return out


# -- section 1: the trace submodule -------------------------------------------------


def _section1_on(spec, aspec, trace_fn=trace):
    rec = _Recorder("section1")
    algebra = _built(aspec)
    reg = regular_module(algebra)
    modules = module_pool(algebra, spec, "s1")
    ideals = ideal_pool(algebra, spec, "s1")
    base = {"algebra": aspec.to_json()}

    for ideal_sub, idesc in ideals:
        ideal_rep = ideal_sub.as_module()
        for module, mdesc in modules:
            inst = dict(base, **idesc, module=mdesc)
            tr = trace_fn(ideal_sub, module)
            lower = ideal_times_module(ideal_sub, module)
            upper = torsion_submodule(module, annihilator(ideal_rep))
            rec.check(
                "trace_sandwich",
                inst,
                tr.carrier.contains(lower.carrier) and upper.carrier.contains(tr.carrier),
                left=tr.carrier,
                right=upper.carrier,
                note="trace must contain IM and sit inside M[Ann I]",
            )
            hom_dim = hom_module(ideal_rep, module).dim
            rec.check(
                "trace_zero_iff_hom_zero",
                inst,
                (tr.dim == 0) == (hom_dim == 0)
                and (hom_dim == 0) == (ideal_sub.dim == 0 or module.dim == 0),
            )
            if is_cyclic_ideal(ideal_sub):
                rec.equal("cyclic_trace_is_annihilator_torsion", inst, tr.carrier, upper.carrier)
                rec.check("cyclic_homothety_onto", inst, is_homothety_onto(ideal_sub, module))
                rec.check(
                    "cyclic_ext1_dimension_formula",
                    inst,
                    ext1(ideal_sub, module).dim == upper.dim - lower.dim,
                )
            rec.check(
                "ext1_zero_iff_excellent_and_homothety_onto",
                inst,
                (ext1(ideal_sub, module).dim == 0)
                == (
                    is_ideal_excellent(ideal_sub, module)
                    and is_homothety_onto(ideal_sub, module)
                ),
            )

    # Direct sums: a sum is I-excellent exactly when both summands are
    # (summands are pure submodules, so both directions hold).
    pairs = [(modules[0], modules[1]), (modules[0], modules[-1])]
    for (ma, da), (mb, db) in pairs:
        total, _, _ = direct_sum(ma, mb)
        for ideal_sub, idesc in ideals[:4]:
            inst = dict(base, **idesc, module={"sum_of": [da, db]})
            rec.check(
                "excellent_for_sum_iff_both_summands",
                inst,
                is_ideal_excellent(ideal_sub, total)
                == (is_ideal_excellent(ideal_sub, ma) and is_ideal_excellent(ideal_sub, mb)),
            )

    # Excellence for two ideals implies excellence for their sum.
    for i in range(min(4, len(ideals))):
        for j in range(i + 1, min(4, len(ideals))):
            ia, da = ideals[i]
            ib, db = ideals[j]
            for module, mdesc in modules[:3]:
                if is_ideal_excellent(ia, module) and is_ideal_excellent(ib, module):
                    inst = dict(base, module=mdesc, ideal=[da["ideal"], db["ideal"]])
                    rec.check(
                        "excellent_for_ideal_sum",
                        inst,
                        is_ideal_excellent(ideal_sum(ia, ib), module),
                    )

    # Known excellent modules: finite sums of copies of the injective
    # hull dual(R); over a QF ring also R itself.
    excellents = [(matlis_dual(reg).rep, {"label": "dual(R)"})]
    big, _, _ = direct_sum(excellents[0][0], excellents[0][0])
    excellents.append((big, {"label": "dual(R)^2"}))
    if is_quasi_frobenius(algebra):
        excellents.append((reg, {"label": "R"}))
    socle_ideal, m = socle(reg), algebra.max_ideal()
    for module, mdesc in excellents:
        inst = dict(base, module=mdesc)
        rec.equal("excellent_for_max_ideal", inst,
                  trace(m, module).carrier, ideal_times_module(m, module).carrier)
        # Excellence at (r) and the cyclic trace formula: rM = M[Ann r].
        for element in _element_samples(algebra, spec, "s1ex"):
            principal = span_submodule(reg, [element])
            ann = annihilator(principal.as_module())
            rec.equal("excellent_principal_image_is_annihilator_torsion", inst,
                      ideal_times_module(principal, module).carrier,
                      torsion_submodule(module, ann).carrier)
        if socle(module).dim != 0:
            rec.check("excellent_socle_implies_faithful", inst, annihilator(module).dim == 0)
        rec.equal(
            "excellent_socle_product",
            inst,
            ideal_times_module(socle_ideal, module).carrier,
            socle(module).carrier,
        )
        if module.dim:
            rec.check(
                "reduced_excellent_socle_image_essential",
                inst,
                is_essential(ideal_times_module(socle_ideal, module)),
            )
            rec.check("reduced_excellent_faithful", inst, annihilator(module).dim == 0)
        if module.dim and minimal_generators(module)[0] <= 1:
            rec.check(
                "cyclic_excellent_is_ring_and_qf",
                inst,
                module.dim == algebra.dim
                and annihilator(module).dim == 0
                and is_quasi_frobenius(algebra),
            )

    # QF <=> excellent (exhaustive over F_p, sampled over Q).  A sampled
    # "holds" only means no sampled ideal is a witness, so on sampled
    # evidence only QF => excellent is checked.
    if algebra.field.is_finite:
        verdict = excellence_verdict(reg)
    else:
        verdict = excellence_verdict(reg, ideals=[i for i, _ in ideals])
    if verdict.evidence == "exhaustive":
        qf_ok = verdict.holds == is_quasi_frobenius(algebra)
    else:
        qf_ok = verdict.holds or not is_quasi_frobenius(algebra)
    rec.check("qf_iff_excellent", dict(base, evidence=verdict.evidence), qf_ok)

    # No proper nonzero ideal, and no proper quotient, is excellent.
    if algebra.field.is_finite and algebra.dim <= 4:
        try:
            all_ideals = enumerate_submodules(reg, cap=spec.submodule_cap)
        except EnumerationCapExceeded:
            all_ideals = enumerate_cyclic_ideals(algebra)
        for a in all_ideals:
            if a.dim == 0 or a.dim == algebra.dim:
                continue
            inst = dict(base, ideal=_ideal_desc(algebra, a))
            a_rep = a.as_module()
            rec.check(
                "proper_ideal_never_excellent",
                inst,
                not excellence_verdict(a_rep).holds,
            )
            quotient_rep, _ = a.quotient()
            rec.check(
                "proper_quotient_never_excellent",
                inst,
                not excellence_verdict(quotient_rep).holds,
            )

    # Trace ideals are good; colons of good ideals by integral ideals are good.
    for ideal_sub, idesc in ideals:
        inst = dict(base, **idesc)
        tr = trace_fn(ideal_sub, reg)
        rec.check("trace_ideal_is_good", inst, trace(tr, reg).carrier == tr.carrier)
        if is_ideal_excellent(ideal_sub, reg):
            for other, odesc in ideals[:3]:
                inst2 = dict(base, ideal=[idesc["ideal"], odesc["ideal"]])
                cln = colon_submodule(ideal_sub, other)
                rec.check(
                    "colon_of_good_ideal_is_good",
                    inst2,
                    trace(cln, reg).carrier == cln.carrier,
                )
    return rec.result()


def suite_section1(spec, trace_fn=trace):
    return _merged("section1", [_section1_on(spec, aspec, trace_fn) for aspec in spec.algebras])


# -- section 2: the ring case and the semigroup model ---------------------------------


def _section2_on(spec, aspec):
    rec = _Recorder("section2")
    algebra = _built(aspec)
    if not algebra.field.is_finite or algebra.field.order ** algebra.dim > 64:
        return rec.result()  # the exhaustive-endomorphism part is for small rings over F_p
    reg = regular_module(algebra)
    base = {"algebra": aspec.to_json()}
    try:
        all_ideals = enumerate_submodules(reg, cap=spec.submodule_cap)
    except EnumerationCapExceeded:
        return rec.result()

    commutative = all(has_commutative_endomorphisms(i) for i in all_ideals)
    rec.check(
        "qf_iff_commutative_endomorphisms",
        dict(base, ideals=len(all_ideals)),
        (socle(reg).dim != 0 and commutative) == is_quasi_frobenius(algebra),
    )

    # Isomorphic good Artinian ideals coincide: unit multiples of an
    # ideal are the only monomial-free isomorphisms available here, and
    # indeed u*I = I.
    units = [v for v in _element_samples(algebra, spec, "s2") if v[0]]
    for i in all_ideals:
        if not (trace(i, reg).carrier == i.carrier):
            continue
        inst = dict(base, ideal=_ideal_desc(algebra, i))
        for u in units:
            scaled = i.carrier.image(reg.element_action(u))  # uI is an ideal
            rec.equal("isomorphic_good_ideals_equal", inst, scaled, i.carrier)

    # Every nonzero ideal inside the socle has the whole socle as trace.
    soc = socle(reg)
    for inner in enumerate_submodules(soc.as_module(), cap=spec.submodule_cap):
        if inner.dim == 0:
            continue
        vecs = [soc.carrier.vector(row) for row in inner.carrier.rows]
        lifted = Submodule(reg, Subspace.from_vectors(algebra.field, reg.dim, vecs), check=False)
        inst = dict(base, ideal=_ideal_desc(algebra, lifted))
        rec.equal("ideal_inside_socle_has_socle_trace", inst, trace(lifted, reg).carrier, soc.carrier)
    return rec.result()


def suite_section2(spec):
    parts = [_section2_on(spec, aspec) for aspec in spec.algebras]
    rec = _Recorder("section2")
    for gens in spec.semigroups:
        s = make(gens)
        base = {"semigroup": list(gens)}
        m = maximal_ideal(s)
        svs = s.value_set()

        report = matlis_report(s)
        rec.check("stable_trace_equals_neighborhood_inverse", base, report.stable_trace_ok)
        if report.two_generated_clause is not None:
            rec.check("two_generated_power_formula", base, report.two_generated_clause)
        rec.check("maximal_ideal_good_iff_not_dvr", base, is_good(m, s) == (not is_dvr(s)))

        rng = _rng(spec.seed, "s2", gens)
        samples = [m, power_m(s, 2), svs, ideal([rng.randint(-4, 6), rng.randint(0, 9)], s)]
        for e in samples:
            inst = dict(base, ideal=e.to_json())
            rec.check(
                "valueset_normalization_stable",
                inst,
                ValueSet(e.conductor, e.members) == e and sumset(e, svs) == e,
            )
            tr = trace_value(e, s)
            rec.check("value_trace_is_good", inst, is_good(tr, s))
            rec.check(
                "good_iff_self_colon_is_inverse",
                inst,
                is_good(e, s) == self_colon_eq_inverse(e, s),
            )
            for z in (-3, 1, 5):
                rec.check(
                    "shift_invariant_trace", inst, trace_value(e.shift(z), s) == tr
                )
            f = power_m(s, 2)
            q = colon(e, f)
            rec.check("colon_product_contained", inst, sumset(q, f).is_subset_of(e))
            rec.check(
                "double_inverse_contains",
                inst,
                e.is_subset_of(inverse(inverse(e, s), s)),
            )
            if is_good(e, s):
                inside = colon(e, f).intersect(svs)
                rec.check("colon_inside_ring_of_good_is_good", inst, is_good(inside, s))
        good_pairs = [(trace_value(m, s), trace_value(power_m(s, 2), s))]
        for a, b in good_pairs:
            rec.check("sum_of_good_ideals_good", base, is_good(a.union(b), s))

        for z in (1, 4):
            shifted = ideal([z], s)
            inst = dict(base, ideal=shifted.to_json())
            rec.check(
                "principal_shift_trace_is_ring",
                inst,
                trace_value(shifted, s) == svs and (is_good(shifted, s) == (shifted == svs)),
            )

        if is_dvr(s):
            rec.check("dvr_maximal_ideal_ext_nonzero", base, ext1_dim(m, s) == 1)
        rec.check("semigroup_itself_ext_zero", base, ext1_dim(svs, s) == 0)
    return _merged("section2", parts + [rec.result()])


# -- section 3: duality ------------------------------------------------------------------


def _member_of(module, incl):
    """Wrap an inclusion matrix as a Submodule of its target module."""
    return Submodule(
        module, Subspace.from_vectors(module.algebra.field, module.dim, incl.cols()), check=False
    )


def _section3_on(spec, aspec):
    rec = _Recorder("section3")
    algebra = _built(aspec)
    reg = regular_module(algebra)
    base = {"algebra": aspec.to_json()}
    modules = module_pool(algebra, spec, "s3")
    ideals = ideal_pool(algebra, spec, "s3")

    # The (I, M) battery: canonical modules x pool ideals, then seeded
    # random pairs up to duality_samples for infinite fields.
    battery = [(i, idesc, m, mdesc) for (i, idesc) in ideals for (m, mdesc) in modules]
    if not algebra.field.is_finite:
        rng = _rng(spec.seed, "s3pairs", algebra.variables, algebra.presentation.relations)
        while len(battery) < spec.duality_samples:
            rows = random_module_presentations(algebra, rng, 1)[0]
            module = module_from_presentation(algebra, rows)
            gens = [random_poly_string(algebra, rng)]
            ideal_sub = ideal_from_elements(algebra, gens)
            battery.append((ideal_sub, {"ideal": gens}, module, {"presentation": rows}))

    for ideal_sub, idesc, module, mdesc in battery:
        inst = dict(base, **idesc, module=mdesc)
        ideal_rep = ideal_sub.as_module()
        dual = matlis_dual(module)

        co = cotrace(ideal_sub, module)
        tr = trace(ideal_sub, module)
        lower = ideal_times_module(annihilator(ideal_rep), module)
        upper = torsion_submodule(module, ideal_sub)
        rec.check(
            "cotrace_sandwich",
            inst,
            co.carrier.contains(lower.carrier) and upper.carrier.contains(co.carrier),
            left=co.carrier,
            right=upper.carrier,
            note="cotrace must contain Ann(I)M and sit inside M[I]",
        )
        rec.equal(
            "dual_trace_is_cotrace_annihilator",
            inst,
            trace(ideal_sub, dual.rep).carrier,
            ann_in_dual(dual, co).carrier,
        )
        rec.equal(
            "dual_cotrace_is_trace_annihilator",
            inst,
            cotrace(ideal_sub, dual.rep).carrier,
            ann_in_dual(dual, tr).carrier,
        )
        rec.check(
            "dual_swaps_excellence",
            inst,
            is_ideal_coexcellent(ideal_sub, module) == is_ideal_excellent(ideal_sub, dual.rep)
            and is_ideal_excellent(ideal_sub, module)
            == is_ideal_coexcellent(ideal_sub, dual.rep),
        )
        rec.check(
            "cotrace_full_iff_tensor_zero",
            inst,
            (co.dim == module.dim)
            == (tensor_product(module, ideal_rep).dim == 0)
            and (tensor_product(module, ideal_rep).dim == 0)
            == (ideal_sub.dim == 0 or module.dim == 0),
        )
        if is_cyclic_ideal(ideal_sub):
            rec.equal(
                "cyclic_cotrace_is_annihilator_image", inst, co.carrier, lower.carrier
            )
            rec.check("cyclic_tensor_eval_injective", inst, is_tensor_eval_injective(module, ideal_sub))
            rec.check(
                "cyclic_tor1_dimension_formula",
                inst,
                tor1(module, ideal_sub).dim == upper.dim - lower.dim,
            )
        rec.check(
            "tor1_zero_iff_coexcellent_and_eval_injective",
            inst,
            (tor1(module, ideal_sub).dim == 0)
            == (
                is_ideal_coexcellent(ideal_sub, module)
                and is_tensor_eval_injective(module, ideal_sub)
            ),
        )
        rec.check(
            "ext_tor_dual_dimension",
            inst,
            ext1(ideal_sub, dual.rep).dim == tor1(module, ideal_sub).dim,
        )

    # The injective-embedding colon route, plus the colon criterion for
    # excellence inside the embedding.
    route_pairs = battery[: spec.colon_route_samples]
    for ideal_sub, idesc, module, mdesc in route_pairs:
        inst = dict(base, **idesc, module=mdesc)
        injective, incl = embed_into_injective(module)
        member = _member_of(injective, incl)
        routed = trace_via_colon(member, ideal_sub)
        direct = trace(ideal_sub, module)
        rec.equal("colon_route_trace_agrees", inst, routed.carrier, direct.carrier.image(incl))
        im_mapped = ideal_times_module(ideal_sub, module).carrier.image(incl)
        im_member = Submodule(injective, im_mapped, check=False)
        rec.check(
            "excellent_iff_colon_comparison",
            inst,
            is_ideal_excellent(ideal_sub, module)
            == (
                colon_submodule(im_member, ideal_sub).carrier
                == colon_submodule(member, ideal_sub).carrier
            ),
        )

    # Cotrace of a free quotient through the colon formula.
    rng = _rng(spec.seed, "s3free", algebra.variables, algebra.presentation.relations)
    free = free_module(algebra, 2)
    for ideal_sub, idesc in ideals[:4]:
        vec = tuple(
            algebra.field.from_int(rng.randint(-2, 2) if not algebra.field.is_finite
                                   else rng.randrange(algebra.field.order))
            for _ in range(free.dim)
        )
        b_sub = span_submodule(free, [vec])
        inst = dict(base, **idesc, module={"label": "R^2 / <random vector>"})
        quotient_rep, proj = b_sub.quotient()
        ib = ideal_times_submodule(ideal_sub, b_sub)
        big_colon = colon_submodule(ib, ideal_sub)
        rec.equal(
            "free_quotient_cotrace_colon_formula",
            inst,
            cotrace(ideal_sub, quotient_rep).carrier,
            big_colon.carrier.image(proj),
        )

    # Summand compatibility (pure submodules realized as summands).
    u_mod = modules[0]
    w_mod = modules[1]
    total, (iu, _iw), (_pu, pw) = direct_sum(u_mod[0], w_mod[0])
    u_member = _member_of(total, iu)
    for ideal_sub, idesc in ideals[:4]:
        inst = dict(base, **idesc, module={"sum_of": [u_mod[1], w_mod[1]]})
        tr_total = trace(ideal_sub, total)
        co_total = cotrace(ideal_sub, total)
        tr_u = trace(ideal_sub, u_mod[0])
        co_u = cotrace(ideal_sub, u_mod[0])
        rec.equal(
            "summand_trace_restriction",
            inst,
            tr_u.carrier.image(iu),
            u_member.carrier.intersect(tr_total.carrier),
        )
        rec.equal(
            "summand_cotrace_restriction",
            inst,
            co_u.carrier.image(iu),
            u_member.carrier.intersect(co_total.carrier),
        )
        # Quotient forms: M/U along the projection to the other summand.
        rec.equal(
            "quotient_trace_image",
            inst,
            trace(ideal_sub, w_mod[0]).carrier,
            tr_total.carrier.image(pw),
        )
        rec.equal(
            "quotient_cotrace_image",
            inst,
            cotrace(ideal_sub, w_mod[0]).carrier,
            co_total.carrier.image(pw),
        )

    # Coexcellent modules: free modules always; over finite fields any
    # module whose exhaustive verdict holds.
    coexcellents = [(reg, {"label": "R"}), (free_module(algebra, 2), {"label": "R^2"})]
    if algebra.field.is_finite:
        for module, mdesc in modules:
            if module.dim and coexcellence_verdict(module).holds:
                coexcellents.append((module, mdesc))
    socle_ideal = socle(reg)
    for module, mdesc in coexcellents:
        inst = dict(base, module=mdesc)
        for ideal_sub, _ in ideals[:3]:
            rec.equal("coexcellent_for_ideal", inst, cotrace(ideal_sub, module).carrier,
                      torsion_submodule(module, ideal_sub).carrier)
        # Coexcellence at (r) and the cyclic cotrace formula: M[r] = Ann(r)M.
        for element in _element_samples(algebra, spec, "s3co"):
            principal = span_submodule(reg, [element])
            ann = annihilator(principal.as_module())
            rec.equal("coexcellent_principal_torsion_is_annihilator_image", inst,
                      torsion_submodule(module, principal).carrier,
                      ideal_times_module(ann, module).carrier)
        if module.dim:
            rec.check("coexcellent_nonzero_faithful", inst, annihilator(module).dim == 0)
        rec.equal(
            "coexcellent_radical_is_socle_torsion",
            inst,
            ideal_times_module(algebra.max_ideal(), module).carrier,
            torsion_submodule(module, socle_ideal).carrier,
        )
        rec.check(
            "socle_torsion_small",
            inst,
            is_small(torsion_submodule(module, socle_ideal)),
        )
        if module.dim and socle(module).dim == 1:
            rec.check(
                "cocyclic_coexcellent_is_ring_and_qf",
                inst,
                module.dim == algebra.dim
                and annihilator(module).dim == 0
                and is_quasi_frobenius(algebra),
            )
    return rec.result()


def suite_section3(spec):
    return _merged("section3", [_section3_on(spec, aspec) for aspec in spec.algebras])


# -- entry points ----------------------------------------------------------------------


def corrupted_trace(ideal_sub, module):
    """A deliberately broken trace (drops the last element of the canonical
    basis of dense hom maps).

    Used by the harness self-test: the suites must flag it with a witness.
    """
    rep = ideal_sub.as_module()
    d = rep.dim
    vecs = []
    for flat in dense_hom_space(rep, module).rows[:-1]:
        vecs.extend(flat[j::d] for j in range(d))
    return Submodule(
        module,
        Subspace.from_vectors(module.algebra.field, module.dim, vecs),
        check=False,
    )


_ON_ALGEBRA = {"section1": _section1_on, "section3": _section3_on, "section2": _section2_on}


def _run_jobs(fn, jobs, workers, meanwhile):
    """({job: fn(job)}, meanwhile()), the jobs taken in the given order.  With workers > 1, forked
    workers pull the jobs as 4-byte tokens from one pipe while meanwhile() runs here, and each sends
    back one pickled {job: result or exception}.  A job's exception is raised here, the first in job
    order; a worker that dies is BrokenProcessPool.  No thread is started, and on any exception every
    worker is killed and reaped."""
    if workers == 1:
        return {job: fn(job) for job in jobs}, meanwhile()
    import pickle  # here, not at the top: the one-process run and the CLI's start-up skip them
    import signal
    fds, pids = list(os.pipe()), []  # the job pipe's two ends, then each worker's result pipe
    try:
        for _ in range(workers):
            fds.extend(os.pipe())
            if not (pid := os.fork()):
                try:
                    os.close(fds[1])  # else the job pipe never reads as closed
                    gc.freeze()  # the inherited heap: this worker's collector never walks it
                    done = {}
                    while token := os.read(fds[0], 4):  # a pipe never splits a token of one write
                        job = int.from_bytes(token, "little")
                        try:
                            done[job] = fn(job)
                        except Exception as exc:
                            done[job] = exc
                    with open(fds[-1], "wb") as out:
                        pickle.dump(done, out)
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
            os.close(fds.pop())
        os.write(fds[1], b"".join(job.to_bytes(4, "little") for job in jobs))
        os.close(fds.pop(1))
        extra, done = meanwhile(), {}
        for pid, fd in list(zip(pids, fds[1:])):
            payload = b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pids.remove(pid)
            if code or not payload:
                from concurrent.futures.process import BrokenProcessPool
                raise BrokenProcessPool("a verify worker died (exit code %d)" % code)
            done.update(pickle.loads(payload))
        if errors := [done[job] for job in jobs if isinstance(done[job], Exception)]:
            raise errors[0]
        return done, extra
    except BaseException:
        for pid in pids:  # stop the running jobs too
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        raise
    finally:
        for fd in fds:
            os.close(fd)


def _worker_count(jobs):
    """Processes to spread the jobs over (1: this one); only a one-thread, non-daemonic process forks."""
    process = sys.modules.get("multiprocessing.process")
    if jobs < 2 or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return 1 if process and process.current_process().daemon else min(jobs, len(os.sched_getaffinity(0)))


def run_suites(spec, suites=("section1", "section2", "section3")):
    """Run the requested suites; deterministic for a fixed spec.  Each algebra is one job, running
    its sections in order with section 2 last, so each reuses what the earlier ones memoised.  The
    jobs run largest first on forked workers (one per usable CPU) that inherit the algebras built
    here; section 2's semigroup part runs here meanwhile.  Results merge in catalog order."""
    for name in suites:
        if name not in ("section1", "section2", "section3"):
            raise ValueError("unknown suite %r" % name)
    names = sorted(dict.fromkeys(suites), key=lambda name: name == "section2")
    jobs = sorted(range(len(spec.algebras)), key=lambda i: -_built(spec.algebras[i]).dim)
    done, semigroups = _run_jobs(
        lambda index: [_ON_ALGEBRA[name](spec, spec.algebras[index]) for name in names],
        jobs,
        _worker_count(len(jobs)),
        lambda: "section2" in suites and suite_section2(spec._replace(algebras=())),
    )
    parts = {name: [done[i][k] for i in sorted(done)] for k, name in enumerate(names)}
    if semigroups:
        parts["section2"].append(semigroups)
    return [_merged(name, parts[name]) for name in suites]
