"""The certified algebra build against an independent Groebner computation.

sympy computes a Groebner basis of I for grevlex on the reversed variables,
which is the order the builder eliminates in (degree first, then the
smaller exponent tuple leads), so the standard monomials of the two must
agree exactly, not only in number.  The nilpotency index must be the least
d at which every monomial of degree d reduces to 0 modulo that basis.
"""

import collections
import contextlib
import itertools
import sys
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from tracelab import artin
from tracelab.artin import (
    PolynomialPresentation,
    _monomials_up_to,
    _relation_multiples,
    build_algebra,
    monomial_label,
    parse_poly,
)
from tracelab.errors import DimensionCapExceeded, NotArtinian, TraceLabError
from tracelab.linalg import GF, QQ
from tracelab.verifier import default_catalog

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3)}


def macaulay_only():
    """Within it, the staircase hands every presentation to the Macaulay route."""
    return mock.patch.object(artin, "_staircase", return_value=None)


def groebner_oracle(field, variables, relations, bound):
    """(exponent tuples outside the Groebner leading monomials, each below
    bound; the least d with every monomial of degree d in I)."""
    gens = sympy.symbols(" ".join(variables), seq=True)
    names = dict(zip(variables, gens))
    polys = [sympy.sympify(r.replace("^", "**"), locals=names) for r in relations]
    options = {"modulus": field.char} if field.char else {}
    basis = sympy.groebner(polys, *reversed(gens), order="grevlex", **options)
    leads = [tuple(reversed(p.monoms(order="grevlex")[0])) for p in basis.polys]
    standard = {
        e
        for e in itertools.product(range(bound), repeat=len(variables))
        if not any(all(a >= b for a, b in zip(e, lead)) for lead in leads)
    }
    # A monomial lies in I iff it reduces to 0 modulo the Groebner basis.
    nilpotency = next(
        d
        for d in itertools.count()
        if all(basis.contains(sympy.Mul(*m)) for m in itertools.combinations_with_replacement(gens, d))
    )
    return standard, nilpotency


def assert_matches_groebner(field, variables, relations, bound):
    R = build_algebra(PolynomialPresentation(field, variables, relations))
    expected, nilpotency = groebner_oracle(field, variables, relations, bound)
    assert set(R.basis_exponents) == expected
    assert R.dim == len(expected)
    assert R.nilpotency_index == nilpotency
    return R


@pytest.mark.parametrize(
    "field, relations, dim",
    [
        (QQ, ["x^2 - y^3", "x*y"], 5),  # a relation whose leading term is not its lowest
        (GF(2), ["x^2 - 2*x^3", "y^2 - 2*x^2*y"], 4),  # (x^2, y^2) once 2 = 0
        (GF(3), ["x^14", "y^14"], 196),  # socle degree 26
    ],
)
def test_degree_falls_and_high_socle_degree_match_groebner(field, relations, dim):
    # (x^14, y^14) is monomial, so the Macaulay route is also run alone.
    for route in (contextlib.nullcontext(), macaulay_only()):
        with route:
            R = assert_matches_groebner(field, ["x", "y"], relations, 15)
        assert R.dim == dim


@st.composite
def m_primary_presentations(draw):
    """x_i^N for every variable, plus random elements of m."""
    nvars = draw(st.integers(1, 3))
    variables = ["x", "y", "z"][:nvars]
    powers = [draw(st.integers(1, 4)) for _ in variables]
    relations = ["%s^%d" % (v, n) for v, n in zip(variables, powers)]
    for _ in range(draw(st.integers(0, 2))):
        element = ""
        for _ in range(draw(st.integers(1, 3))):
            exp = draw(st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars).filter(any))
            sign = draw(st.sampled_from(["+", "-"]))
            coeff = draw(st.integers(1, 3))
            monomial = "*".join("%s^%d" % (v, e) for v, e in zip(variables, exp))
            element += " %s %d*%s" % (sign, coeff, monomial)
        relations.append(element.strip())
    return variables, relations, max(powers)


@settings(max_examples=20, deadline=None)
@given(field_name=st.sampled_from(sorted(FIELDS)), presentation=m_primary_presentations(), alone=st.booleans())
def test_dimension_matches_groebner(field_name, presentation, alone):
    # Draws with no extra relation are monomial: alone, they test the Macaulay route.
    variables, relations, bound = presentation
    with macaulay_only() if alone else contextlib.nullcontext():
        assert_matches_groebner(FIELDS[field_name], variables, relations, bound)


def build_outcome(presentation):
    """The algebra's basis, action rows and nilpotency index, or the class
    and message of the error the build raises."""
    try:
        R = build_algebra(presentation)
    except TraceLabError as exc:
        return type(exc), str(exc)
    return R.basis_exponents, tuple(a.rows for a in R.actions), R.nilpotency_index


@st.composite
def monomial_presentations(draw):
    """(field, variables, relations): monomials times 1, -1, 2, 3 or 5 (zero
    when p divides it), a pure power of each variable but perhaps the last,
    and repeated and redundant generators."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    nvars = draw(st.integers(1, 3))
    variables = ["x", "y", "z"][:nvars]
    gens = [(0,) * v + (draw(st.integers(1, 5)),) + (0,) * (nvars - v - 1) for v in range(nvars)]
    gens = gens[: draw(st.sampled_from([nvars, nvars, nvars - 1]))]
    gens += draw(st.lists(st.tuples(*[st.integers(0, 5)] * nvars).filter(any), max_size=3))
    gens += draw(st.lists(st.sampled_from(gens), max_size=2)) if gens else []
    coeff = st.sampled_from([1, -1, 2, 3, 5])
    return field, variables, ["%d*%s" % (draw(coeff), monomial_label(g, variables)) for g in gens]


@settings(max_examples=80, deadline=None)
@given(presentation=monomial_presentations(), cap=st.sampled_from(["0", "1", "dim - 1", "dim", "512"]))
@example(presentation=(GF(2), ["x"], ["x"]), cap="0")
@example(presentation=(GF(2), ["x"], ["x^1000"]), cap="dim")  # D past the ceiling
@example(presentation=(GF(2), ["x", "y"], ["2*x^3", "x^2", "x^2", "x*y^2", "y^3"]), cap="dim - 1")
def test_staircase_matches_the_macaulay_route(presentation, cap):
    field, variables, relations = presentation
    with macaulay_only():
        # A rejected presentation takes "dim" as the ceiling, 1,000.
        reference = build_outcome(PolynomialPresentation(field, variables, relations, dim_cap=1000))
    dim = 1000 if len(reference) == 2 else len(reference[0])
    dim_cap = {"0": 0, "1": 1, "dim - 1": dim - 1, "dim": dim, "512": 512}[cap]
    presentation = PolynomialPresentation(field, variables, relations, dim_cap=dim_cap)
    with macaulay_only():
        expected = build_outcome(presentation)
    assert build_outcome(presentation) == expected


def walk_counts(presentation, most):
    """(the message of the build's NotArtinian, how many successors the
    staircase walk tested, how many generators it tested them against): the
    walk tests a successor with one any() and a generator with one all().
    A walk that tests more than `most` successors is failed at once."""
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "c_call":
            calls[arg.__name__] += 1
            if calls["any"] > most:
                raise AssertionError("the walk tested over %d successors" % most)

    def profiled(*args):
        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            return walk(*args)
        finally:
            sys.setprofile(outer)

    walk = artin._staircase
    with mock.patch.object(artin, "_staircase", profiled), pytest.raises(NotArtinian) as info:
        build_algebra(presentation)
    return str(info.value), calls["any"], calls["all"]


@pytest.mark.parametrize(
    "variables, relations, dim_cap",
    [
        # Dim 50,000 under the cap: the walk stops at degree 43, the ceiling,
        # after 946 monomials.
        (["x", "y"], ["x^250", "y^200"], 100000),
        # Dim 2^30: the walk stops at degree 2, and tests each successor only
        # against the generators that can divide it, here at most x_i^2.
        (["x%d" % i for i in range(30)], ["x%d^2" % i for i in range(30)], 512),
    ],
)
def test_staircase_hands_over_within_the_ceiling(variables, relations, dim_cap):
    presentation = PolynomialPresentation(GF(2), variables, relations, dim_cap=dim_cap)
    message, successors, tests = walk_counts(presentation, most=len(variables) * 1000)
    with macaulay_only(), pytest.raises(NotArtinian) as reference:
        build_algebra(presentation)
    assert message == str(reference.value)
    assert tests <= successors


def test_monomial_presentations_take_the_staircase():
    algebras = default_catalog().algebras
    assert len(algebras) == 19
    with mock.patch.object(artin, "_relation_multiples", wraps=_relation_multiples) as macaulay:
        for spec in algebras:
            build_algebra(PolynomialPresentation(spec.field, spec.variables, spec.relations))
        assert not macaulay.called
        build_algebra(PolynomialPresentation(QQ, ["x", "y"], ["x^2 - y^3", "x*y"]))
        assert macaulay.called


def test_local_at_the_origin_but_not_globally_is_not_local():
    # y^2 (1 - y): the origin gives (x^2, y^2), and there is a second point at y = 1.
    # test_cli checks x*y and x^2 - x, with their time bound, through the CLI.
    with pytest.raises(NotArtinian, match="not local"):
        build_algebra(PolynomialPresentation(QQ, ["x", "y"], ["x^2", "y^2 - y^3"]))


def test_dimension_cap_is_exact():
    # h(t) never exceeds dim R, so a cap equal to the dimension passes.
    assert build_algebra(PolynomialPresentation(QQ, ["x", "y"], ["x^3", "y^2"], dim_cap=6)).dim == 6
    with pytest.raises(DimensionCapExceeded):
        build_algebra(PolynomialPresentation(QQ, ["x", "y"], ["x^3", "y^2"], dim_cap=5))


def test_coefficients_are_reduced_mod_p():
    assert parse_poly("x^2 - 2*x^3", ["x", "y"], 2) == {(2, 0): 1}
    assert parse_poly("x + x", ["x"], 2) == {}
    assert parse_poly("-x + 4", ["x"], 3) == {(1,): 2, (0,): 1}
    assert parse_poly("x^2 - 2*x^3", ["x"]) == {(2,): 1, (3,): -2}


@pytest.mark.parametrize("variables, top", [("x", 999), ("xy", 43), ("xyz", 16), ("wxyz", 9)])
def test_local_step_stops_at_the_last_degree_within_the_ceiling(variables, top):
    # With no relations nothing is Artinian, so the local step runs to the
    # last degree t whose monomial count comb(t + n, n) is within 1,000.
    with pytest.raises(NotArtinian, match="at t = %d, " % top):
        build_algebra(PolynomialPresentation(GF(2), list(variables), [], dim_cap=1000))


def relation_multiples_per_relation(field, relations, nvars, top, cut):
    """The Macaulay (columns, rows) as first built, enumerating the shifts of
    each relation anew: the oracle of _relation_multiples."""
    order = sorted(_monomials_up_to(nvars, top), key=lambda e: (-sum(e), e))
    col_of = {e: i for i, e in enumerate(order)}
    rows = []
    for _, rel in relations:
        terms = [(e, field.from_int(c)) for e, c in rel.items()]
        degrees = [sum(e) for e in rel]
        for shift in _monomials_up_to(nvars, top - (min(degrees) if cut else max(degrees))):
            row = {}
            for exp, coeff in terms:
                j = col_of.get(tuple(x + y for x, y in zip(exp, shift)))
                if j is not None:
                    row[j] = coeff
            rows.append(row)
    rows.sort(key=len)
    return order, rows


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_macaulay_rows_match_the_per_relation_enumeration(data):
    field = FIELDS[data.draw(st.sampled_from(sorted(FIELDS)))]
    nvars = data.draw(st.integers(1, 3))
    # Terms of degree 1..12, so some relations outgrow top and get no shift.
    exponent = st.tuples(*[st.integers(0, 4)] * nvars).filter(any)
    coeff = st.integers(1, field.char - 1) if field.char else st.integers(-3, 3).filter(bool)
    polys = st.dictionaries(exponent, coeff, min_size=1, max_size=3)
    relations = [(str(rel), rel) for rel in data.draw(st.lists(polys, min_size=1, max_size=3))]
    top, cut = data.draw(st.integers(0, 8)), data.draw(st.booleans())
    got = _relation_multiples(field, relations, nvars, top, cut)
    assert got == relation_multiples_per_relation(field, relations, nvars, top, cut)


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_reversed_monomials_run_high_degree_first(nvars):
    # _relation_multiples takes its columns as the low-degree-first list
    # reversed, in place of sorting by (-degree, exponent).
    for top in range(13):
        monomials = _monomials_up_to(nvars, top)
        assert monomials[::-1] == sorted(monomials, key=lambda e: (-sum(e), e))
        assert _relation_multiples(GF(2), [], nvars, top, False)[0] == monomials[::-1]
