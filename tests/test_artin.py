"""Algebra construction and elementary module operations."""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from tracelab.artin import (
    PolynomialPresentation,
    annihilator,
    build_algebra,
    colon,
    direct_sum,
    enumerate_cyclic_ideals,
    enumerate_submodules,
    free_module,
    ideal_from_elements,
    ideal_times_module,
    is_essential,
    is_small,
    minimal_generators,
    module_from_presentation,
    parse_poly,
    radical_core,
    regular_module,
    socle,
    span_submodule,
    torsion_submodule,
)
from tracelab.errors import (
    FieldNotFinite,
    NotArtinian,
    ParseError,
    ResidueFieldError,
)
from tracelab.linalg import GF, QQ, Matrix
from tracelab.verifier import _built, default_catalog, module_pool


def algebra(field, variables, relations):
    return build_algebra(PolynomialPresentation(field, variables, relations))


@pytest.fixture(scope="module")
def dual_numbers():
    # k[x]/(x^2): basis {1, x}
    return algebra(QQ, ["x"], ["x^2"])


@pytest.fixture(scope="module")
def fat_point():
    # k[x,y]/(x^2, xy, y^2): basis {1, x, y}
    return algebra(QQ, ["x", "y"], ["x^2", "x*y", "y^2"])


# -- parsing -------------------------------------------------------------------


def test_parse_poly_basic():
    p = parse_poly("x^2 - 2*x*y + 3", ["x", "y"])
    assert p == {(2, 0): 1, (1, 1): -2, (0, 0): 3}


def test_parse_poly_unary_minus_and_cancel():
    assert parse_poly("-x + x", ["x"]) == {}


def test_parse_poly_rejects_unknown_variable():
    with pytest.raises(ParseError):
        parse_poly("x + z", ["x", "y"])


def test_parse_poly_rejects_garbage():
    with pytest.raises(ParseError):
        parse_poly("x +* y", ["x", "y"])
    with pytest.raises(ParseError):
        parse_poly("x ^ y", ["x", "y"])


# -- algebra construction -------------------------------------------------------


def test_dual_numbers_structure(dual_numbers):
    R = dual_numbers
    assert R.dim == 2
    assert R.basis_labels == ("1", "x")
    assert R.max_ideal().dim == 1
    # x * x = 0
    x = R.parse_element("x")
    assert not any(R.actions[0].apply(x))
    assert R.nilpotency_index == 2


def test_fat_point_structure(fat_point):
    R = fat_point
    assert R.dim == 3
    assert set(R.basis_labels) == {"1", "x", "y"}
    assert R.max_ideal().dim == 2


def test_field_as_algebra():
    R = algebra(QQ, ["x"], ["x"])
    assert R.dim == 1
    assert R.max_ideal().dim == 0
    assert R.nilpotency_index == 1


def test_redundant_relations_allowed():
    R = algebra(QQ, ["x"], ["x", "x^2"])
    assert R.dim == 1


def test_truncated_power_series():
    R = algebra(GF(2), ["x"], ["x^4"])
    assert R.dim == 4
    assert R.basis_labels == ("1", "x", "x^2", "x^3")
    assert R.nilpotency_index == 4


def test_mixed_relation_quotient():
    # k[x,y]/(x^2 - y, y^2): x^2 = y, so basis {1, x, y=x^2, x^3}, x^4 = y^2 = 0.
    R = algebra(QQ, ["x", "y"], ["x^2 - y", "y^2"])
    assert R.dim == 4


def test_non_artinian_rejected():
    with pytest.raises(NotArtinian):
        algebra(QQ, ["x", "y"], ["x*y"])


def test_nonlocal_quotient_rejected():
    # x^2 = x has the idempotent x, so the quotient splits and is not local.
    with pytest.raises(NotArtinian):
        algebra(QQ, ["x"], ["x^2 - x"])


def test_nonzero_constant_term_rejected():
    with pytest.raises(ResidueFieldError):
        algebra(QQ, ["x"], ["x^2 + 1"])


def test_commutation_and_relations_hold(fat_point):
    a0, a1 = fat_point.actions
    assert a0 @ a1 == a1 @ a0
    assert (a0 @ a0).is_zero()
    assert (a0 @ a1).is_zero()
    assert (a1 @ a1).is_zero()


def test_nilpotency_within_dimension():
    for rel in (["x^2"], ["x^3"], ["x^4"]):
        R = algebra(GF(3), ["x"], rel)
        assert R.nilpotency_index <= R.dim


# -- modules -------------------------------------------------------------------


def test_regular_module_dimension(dual_numbers):
    assert regular_module(dual_numbers).dim == dual_numbers.dim
    R1 = algebra(QQ, ["x"], ["x"])
    assert regular_module(R1).dim == 1


def test_presentation_identity_column_kills_everything(dual_numbers):
    M = module_from_presentation(dual_numbers, [["1"]])
    assert M.dim == 0


def test_presentation_x_column_gives_residue_field(dual_numbers):
    M = module_from_presentation(dual_numbers, [["x"]])
    assert M.dim == 1


def test_empty_presentation_is_free(dual_numbers):
    M = module_from_presentation(dual_numbers, [], n_gens=2)
    assert M.dim == 2 * dual_numbers.dim


def test_span_submodule(fat_point):
    R = regular_module(fat_point)
    assert span_submodule(R, []).dim == 0
    assert span_submodule(R, [fat_point.unit]).dim == 3
    x = fat_point.parse_element("x")
    assert span_submodule(R, [x]).dim == 1  # x*m = 0


def test_ideal_times_module(dual_numbers):
    R = regular_module(dual_numbers)
    m = dual_numbers.max_ideal()
    mr = ideal_times_module(m, R)
    assert mr.dim == 1
    assert mr.carrier.contains_vector(dual_numbers.parse_element("x"))
    full = ideal_from_elements(dual_numbers, ["1"])
    assert ideal_times_module(full, R).dim == 2
    zero = ideal_from_elements(dual_numbers, [])
    assert ideal_times_module(zero, R).dim == 0


def test_torsion_submodule(dual_numbers, fat_point):
    R = regular_module(dual_numbers)
    ix = ideal_from_elements(dual_numbers, ["x"])
    t = torsion_submodule(R, ix)
    assert t.dim == 1 and t.carrier.contains_vector(dual_numbers.parse_element("x"))
    zero = ideal_from_elements(dual_numbers, [])
    assert torsion_submodule(R, zero).dim == R.dim
    R2 = regular_module(fat_point)
    m = fat_point.max_ideal()
    assert torsion_submodule(R2, m).dim == 2


def test_colon(dual_numbers):
    R = regular_module(dual_numbers)
    ix = ideal_from_elements(dual_numbers, ["x"])
    assert colon(R.full_submodule(), ix).dim == R.dim
    zero_sub = R.zero_submodule()
    assert colon(zero_sub, ix).carrier == torsion_submodule(R, ix).carrier
    c = colon(zero_sub, ix)
    assert c.dim == 1 and c.carrier.contains_vector(dual_numbers.parse_element("x"))


def test_colon_with_unit_ideal_is_submodule_itself(fat_point):
    R = regular_module(fat_point)
    full_ideal = ideal_from_elements(fat_point, ["1"])
    n = span_submodule(R, [fat_point.parse_element("x")])
    assert colon(n, full_ideal).carrier == n.carrier


def test_socle(dual_numbers, fat_point):
    assert socle(regular_module(fat_point)).dim == 2
    assert socle(regular_module(dual_numbers)).dim == 1


def test_annihilator(dual_numbers):
    R = regular_module(dual_numbers)
    assert annihilator(R).dim == 0  # regular module is faithful
    k = module_from_presentation(dual_numbers, [["x"]])
    assert annihilator(k).dim == 1  # Ann(k) = m


def test_radical_core_vanishes(fat_point):
    for M in (regular_module(fat_point), free_module(fat_point, 2)):
        assert radical_core(M).dim == 0


def test_minimal_generators(fat_point):
    R = regular_module(fat_point)
    m = fat_point.max_ideal()
    m_rep, _ = m.as_module()
    assert minimal_generators(m_rep)[0] == 2
    assert minimal_generators(R)[0] == 1
    zero = module_from_presentation(fat_point, [["1"]])
    assert minimal_generators(zero)[0] == 0


def catalog_module_pools():
    """(algebra, module) over every module of the catalog's suite pools."""
    catalog = default_catalog()
    for spec in catalog.algebras:
        algebra = _built(spec)
        for tag in ("s1", "s3"):
            for module, _ in module_pool(algebra, catalog, tag):
                yield algebra, module


def test_minimal_generators_match_the_ideal_times_module_route():
    # The lifts used to be the standard vectors off the pivots of m*M
    # computed as an ideal product; the column span of the variable actions
    # must give the same ones.
    count = 0
    for algebra, module in catalog_module_pools():
        pivots = set(ideal_times_module(algebra.max_ideal(), module).carrier.pivots)
        field = algebra.field
        expected = [
            tuple(field.one if i == q else field.zero for i in range(module.dim))
            for q in range(module.dim)
            if q not in pivots
        ]
        assert minimal_generators(module) == (len(expected), expected)
        count += 1
    assert count > 100


@lru_cache(maxsize=None)
def _action_case(field_name, index):
    field = {"F2": GF(2), "F3": GF(3), "Q": QQ}[field_name]
    R = algebra(field, ["x", "y"], ["x^3", "x*y^2", "y^3 - x^2*y"] if index else ["x^2", "y^2"])
    return [regular_module(R), module_from_presentation(R, [["x", "y^2"], ["y", "0"]])]


@settings(max_examples=60, deadline=None)
@given(
    field_name=st.sampled_from(["F2", "F3", "Q"]),
    index=st.integers(0, 1),
    which=st.integers(0, 1),
    data=st.data(),
)
def test_element_action_is_sum_of_scaled_monomial_operators(field_name, index, which, data):
    module = _action_case(field_name, index)[which]
    field = module.algebra.field
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=module.algebra.dim, max_size=module.algebra.dim))
    r = tuple(field.from_int(c) for c in coeffs)
    expected = Matrix.zeros(field, module.dim, module.dim)
    for s, c in enumerate(r):
        expected = expected + module.monomial_operator(s).scale(c)
    assert module.element_action(r) == expected


def test_huge_exponent_stops_at_zero(fat_point):
    # x^e is zero for every e >= 2, so the loop must not run e times.
    assert fat_point.parse_element("x^3000000000") == (0, 0, 0)
    assert fat_point.parse_element("2*x^1 + y^0") == fat_point.parse_element("1 + 2*x")
    assert parse_poly("x^4*y^0", ["x", "y"]) == {(4, 0): 1}
    assert parse_poly("0^0 + 3^2", ["x"]) == {(0,): 10}
    # A relation with a huge exponent is certified by evaluating it, which
    # must stop once the power is zero.
    assert algebra(QQ, ["x", "y"], ["x^2", "y^2", "x^3000000000"]).dim == 4


def test_essential_and_small(fat_point):
    R = regular_module(fat_point)
    assert is_essential(socle(R))
    assert is_small(R.zero_submodule())
    x_line = span_submodule(R, [fat_point.parse_element("x")])
    assert not is_essential(x_line)  # socle is 2-dimensional
    assert is_small(x_line)  # contained in m = mR


def test_direct_sum_shapes(dual_numbers):
    R = regular_module(dual_numbers)
    s, (ia, ib), (pa, pb) = direct_sum(R, R)
    assert s.dim == 4
    assert (pa @ ia).nrows == 2
    assert (pa @ ib).is_zero()


# -- enumeration ---------------------------------------------------------------


def test_cyclic_ideals_dual_numbers_f2():
    R = algebra(GF(2), ["x"], ["x^2"])
    ideals = enumerate_cyclic_ideals(R)
    assert [i.dim for i in ideals] == [0, 1, 2]  # 0, (x), R


def test_cyclic_ideals_of_field():
    R = algebra(GF(2), ["x"], ["x"])
    assert [i.dim for i in enumerate_cyclic_ideals(R)] == [0, 1]


def test_cyclic_ideals_fat_point_f2():
    R = algebra(GF(2), ["x", "y"], ["x^2", "x*y", "y^2"])
    ideals = enumerate_cyclic_ideals(R)
    # 0, the p+1 = 3 lines inside the socle span{x,y}, and R itself.
    assert len(ideals) == 5
    assert sorted(i.dim for i in ideals) == [0, 1, 1, 1, 3]


def test_cyclic_ideals_need_finite_field(fat_point):
    with pytest.raises(FieldNotFinite):
        enumerate_cyclic_ideals(fat_point)


def test_enumerate_submodules_counts():
    R = algebra(GF(2), ["x"], ["x^2"])
    subs = enumerate_submodules(regular_module(R))
    assert [s.dim for s in subs] == [0, 1, 2]  # all ideals of F2[x]/(x^2)
    F = algebra(GF(2), ["x", "y"], ["x^2", "x*y", "y^2"])
    subs = enumerate_submodules(regular_module(F))
    # ideals: 0, three lines in the socle, the socle itself, R
    assert len(subs) == 6


def test_dimension_cap_enforced():
    from tracelab.errors import DimensionCapExceeded

    with pytest.raises(DimensionCapExceeded):
        build_algebra(PolynomialPresentation(QQ, ["x"], ["x^6"], dim_cap=4))


def test_enumeration_cap_enforced():
    from tracelab.errors import EnumerationCapExceeded

    R = algebra(GF(5), ["x"], ["x^4"])
    with pytest.raises(EnumerationCapExceeded):
        enumerate_cyclic_ideals(R, cap=100)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_submodules(regular_module(algebra(GF(2), ["x"], ["x^4"])), cap=2)
