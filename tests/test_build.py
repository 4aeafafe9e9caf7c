"""The certified algebra build against an independent Groebner computation.

sympy computes a Groebner basis of I for grevlex on the reversed variables,
which is the order the builder eliminates in (degree first, then the
smaller exponent tuple leads), so the standard monomials of the two must
agree exactly, not only in number.  The nilpotency index must be the least
d at which every monomial of degree d reduces to 0 modulo that basis.
"""

import itertools

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from tracelab.artin import PolynomialPresentation, _monomials_up_to, _relation_multiples, build_algebra, parse_poly
from tracelab.errors import DimensionCapExceeded, NotArtinian
from tracelab.linalg import GF, QQ

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3)}


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
@given(field_name=st.sampled_from(sorted(FIELDS)), presentation=m_primary_presentations())
def test_dimension_matches_groebner(field_name, presentation):
    variables, relations, bound = presentation
    assert_matches_groebner(FIELDS[field_name], variables, relations, bound)


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
