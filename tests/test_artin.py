"""Algebra construction and elementary module operations."""

import inspect
import itertools
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from tracelab.artin import (
    PolynomialPresentation,
    Submodule,
    _cyclic_submodules,
    annihilator,
    build_algebra,
    colon,
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
    parse_poly,
    power_module,
    regular_module,
    socle,
    span_submodule,
    submodule_generators,
    torsion_submodule,
)
from tracelab.errors import (
    DimensionMismatch,
    FieldNotFinite,
    NotArtinian,
    NotSubmodule,
    ParseError,
    ResidueFieldError,
)
from tracelab.homological import matlis_dual
from tracelab.linalg import GF, QQ, Matrix, Subspace, kernel, vstack
from tracelab.verifier import _built, default_catalog, module_pool

from test_homological import monomial_operators
from test_linalg import assert_trusted


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
    assert not any(map(any, (a0 @ a0).rows))
    assert not any(map(any, (a0 @ a1).rows))
    assert not any(map(any, (a1 @ a1).rows))


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


def test_span_submodule_checks_the_given_vectors():
    # The orbit rows after the first come out of Matrix.apply canonical; the
    # first is the caller's own vector and is checked like from_vectors input.
    F2 = algebra(GF(2), ["x"], ["x^2"])
    M = free_module(F2, 2)
    assert span_submodule(M, [(1, 0, 3, 0)]) == span_submodule(M, [(1, 0, 1, 0)])
    assert span_submodule(M, [(1, 0, 3, 0)]).carrier.rows == ((1, 0, 1, 0), (0, 1, 0, 1))
    Q = algebra(QQ, ["x"], ["x^2"])
    with pytest.raises(TypeError):
        span_submodule(regular_module(Q), [(1.0, 0)])
    with pytest.raises(TypeError):
        span_submodule(regular_module(Q), [(True, 0)])
    point = algebra(QQ, ["x"], ["x"])  # dim 1: the orbit applies no action
    assert point.dim == 1
    with pytest.raises(DimensionMismatch):
        span_submodule(regular_module(point), [(1, 0)])


def test_submodule_rejects_a_carrier_that_is_not_closed():
    # In F2[x]/(x^3) the k-span of x is not an ideal: x * x = x^2 leaves it.
    R = algebra(GF(2), ["x"], ["x^3"])
    reg = regular_module(R)
    span_x = Subspace.from_vectors(R.field, R.dim, [R.parse_element("x")])
    with pytest.raises(NotSubmodule):
        Submodule(reg, span_x)
    unchecked = Submodule(reg, span_x, check=False)
    with pytest.raises(NotSubmodule):
        unchecked.as_module()
    with pytest.raises(NotSubmodule):
        Submodule(reg, Subspace.zero(R.field, R.dim + 1))


def fixpoint_closure(module, vectors):
    """The smallest action-closed subspace holding the vectors, by adding the
    images under the variables until nothing changes."""
    field = module.algebra.field
    current = Subspace.from_vectors(field, module.dim, vectors)
    while True:
        images = [a.apply(row) for a in module.actions for row in current.rows]
        bigger = Subspace.from_vectors(field, module.dim, list(current.rows) + images)
        if bigger == current:
            return current
        current = bigger


@lru_cache(maxsize=None)
def _catalog_modules():
    return [module for _, module in catalog_module_pools()]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_span_submodule_is_the_fixpoint_closure(data):
    modules = _catalog_modules()
    module = modules[data.draw(st.integers(0, len(modules) - 1))]
    field = module.algebra.field
    vector = st.lists(st.integers(-2, 2), min_size=module.dim, max_size=module.dim)
    vectors = [tuple(field.from_int(c) for c in v) for v in data.draw(st.lists(vector, max_size=3))]
    span = span_submodule(module, vectors)
    assert span.module is module
    assert span.carrier == fixpoint_closure(module, vectors)


def test_ideal_times_module(dual_numbers):
    R = regular_module(dual_numbers)
    m = dual_numbers.max_ideal()
    mr = ideal_times_module(m, R)
    assert mr.dim == 1
    assert mr.carrier.coords_of(dual_numbers.parse_element("x")) is not None
    full = ideal_from_elements(dual_numbers, ["1"])
    assert ideal_times_module(full, R).dim == 2
    zero = ideal_from_elements(dual_numbers, [])
    assert ideal_times_module(zero, R).dim == 0


def test_torsion_submodule(dual_numbers, fat_point):
    R = regular_module(dual_numbers)
    ix = ideal_from_elements(dual_numbers, ["x"])
    t = torsion_submodule(R, ix)
    assert t.dim == 1 and t.carrier.coords_of(dual_numbers.parse_element("x")) is not None
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
    assert c.dim == 1 and c.carrier.coords_of(dual_numbers.parse_element("x")) is not None


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


def test_minimal_generators(fat_point):
    R = regular_module(fat_point)
    m = fat_point.max_ideal()
    m_rep = m.as_module()
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


ACTION_CASES = 5


@lru_cache(maxsize=None)
def _action_case(field_name, index):
    """ACTION_CASES modules whose free covers differ in shape: R (one
    generator, identity section), a cokernel, the Matlis dual of the fat
    point (two generators, a non-identity section), an ideal as a module,
    and the zero module (no generators)."""
    field = {"F2": GF(2), "F3": GF(3), "Q": QQ}[field_name]
    R = algebra(field, ["x", "y"], ["x^3", "x*y^2", "y^3 - x^2*y"] if index else ["x^2", "y^2"])
    fat = regular_module(algebra(field, ["x", "y"], ["x^2", "x*y", "y^2"]))
    return [
        regular_module(R),
        module_from_presentation(R, [["x", "y^2"], ["y", "0"]]),
        matlis_dual(fat).rep,
        ideal_from_elements(R, ["x", "y^2"]).as_module(),
        module_from_presentation(R, [["1"]]),
    ]


@settings(max_examples=100, deadline=None)
@given(
    field_name=st.sampled_from(["F2", "F3", "Q"]),
    index=st.integers(0, 1),
    which=st.integers(0, ACTION_CASES - 1),
    data=st.data(),
)
def test_element_action_is_sum_of_scaled_monomial_operators(field_name, index, which, data):
    module = _action_case(field_name, index)[which]
    field = module.algebra.field
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=module.algebra.dim, max_size=module.algebra.dim))
    r = tuple(field.from_int(c) for c in coeffs)
    assert module.element_action(r) == operator_of(module, r)
    assert module.element_action(list(r)) == operator_of(module, r)


@settings(max_examples=60, deadline=None)
@given(
    field_name=st.sampled_from(["F2", "F3", "Q"]),
    index=st.integers(0, 1),
    which=st.integers(0, ACTION_CASES - 1),
    kind=st.sampled_from(["zero", "full", "span"]),
    data=st.data(),
)
def test_quotient_projection_intertwines_the_actions(field_name, index, which, kind, data):
    module = _action_case(field_name, index)[which]
    field = module.algebra.field
    if kind == "zero":
        sub = Submodule(module, Subspace.zero(field, module.dim))
    elif kind == "full":
        sub = module.full_submodule()
    else:
        vec = st.lists(st.integers(-4, 4), min_size=module.dim, max_size=module.dim)
        vecs = data.draw(st.lists(vec, min_size=1, max_size=2))
        sub = span_submodule(module, [tuple(field.from_int(c) for c in v) for v in vecs])
    rep, proj = sub.quotient()
    assert rep.algebra is module.algebra and rep.dim == module.dim - sub.dim
    assert (proj.nrows, proj.ncols) == (rep.dim, module.dim)
    for a, b in zip(module.actions, rep.actions, strict=True):
        assert proj @ a == b @ proj
    assert not any(any(proj.apply(u)) for u in sub.carrier.rows)


def restricted_generators(sub):
    """The route submodule_generators replaces: the standard vectors off the
    pivots of mU in U's own coordinates (U.as_module()), lifted into M."""
    rep, field = sub.as_module(), sub.module.algebra.field
    mu = Subspace.from_vectors(field, rep.dim, [c for a in rep.actions for c in a.cols()])
    units = Matrix.identity(field, rep.dim).rows
    return tuple(sub.carrier.vector(units[q]) for q in range(rep.dim) if q not in mu.pivots)


@settings(max_examples=100, deadline=None)
@given(
    field_name=st.sampled_from(["F2", "F3", "Q"]),
    index=st.integers(0, 1),
    which=st.integers(0, ACTION_CASES - 1),
    data=st.data(),
)
def test_submodule_generators_match_the_restriction_route(field_name, index, which, data):
    module = _action_case(field_name, index)[which]
    field = module.algebra.field
    vector = st.lists(st.integers(-2, 2), min_size=module.dim, max_size=module.dim)
    vectors = [tuple(field.from_int(c) for c in v) for v in data.draw(st.lists(vector, max_size=3))]
    for sub in (span_submodule(module, vectors), module.zero_submodule(), module.full_submodule()):
        gens = submodule_generators(sub)
        assert gens == restricted_generators(sub)
        assert span_submodule(module, gens) == sub
    assert submodule_generators(module.zero_submodule()) == ()
    assert list(submodule_generators(module.full_submodule())) == minimal_generators(module)[1]


def test_socle_is_the_max_ideal_torsion():
    # The old definition, M[m] through the generators of m, is the oracle for
    # the joint kernel of the variables.
    count = 0
    for algebra_, module in catalog_module_pools():
        assert socle(module).carrier == torsion_submodule(module, algebra_.max_ideal()).carrier
        count += 1
    assert count > 100
    for field in (GF(2), GF(3), QQ):  # k has no variables, so the socle is a joint kernel of no map
        k = regular_module(algebra(field, [], []))
        assert socle(k).carrier == torsion_submodule(k, k.algebra.max_ideal()).carrier == k.full_submodule().carrier


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_presentation_without_relations_is_the_free_module(field):
    R = algebra(field, ["x", "y"], ["x^2", "y^2"])
    for n in (0, 1, 3):
        free = free_module(R, n)  # R^n modulo 0 is R^n itself: reps are interned
        for rows in ([], [[]] * n):
            assert module_from_presentation(R, rows, n_gens=n) is free


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_free_modules_are_their_own_cover(field):
    # R and R^n are covered by their standard basis: the units 1 of the
    # summands generate, P = I, so the section P @ S = I is P itself, taken
    # without an elimination.
    R = algebra(field, ["x", "y"], ["x^2", "y^3"])
    for module in (regular_module(R), free_module(R, 2)):
        cover = module.free_cover()
        assert cover.generators == Matrix.identity(field, module.dim).rows[:: R.dim]
        assert cover.section == Matrix.identity(field, module.dim)
        assert cover.section is cover.matrix


@pytest.mark.parametrize("field", [GF(2), QQ], ids=str)
@pytest.mark.parametrize("relations", [["x^2", "x*y", "y^2"], ["x^3", "y^2 - x^2"], ["x^6", "y^6"]])  # dim 3, 6, 36
def test_regular_cover_is_the_identity_without_the_orbit_walk(field, relations):
    # R's cover is taken as generator 1 and P = I; the orbit of 1 under the
    # monomial tree, the route for every other module, gives the same cover.
    reg = regular_module(algebra(field, ["x", "y"], relations))
    cover = reg.free_cover()
    gens = minimal_generators(reg)[1]
    assert cover.generators == tuple(gens) == (reg.algebra.unit,)
    assert cover.matrix == Matrix.from_cols(field, reg.orbit(gens[0]), nrows=reg.dim)
    assert cover.matrix == Matrix.identity(field, reg.dim)


@settings(max_examples=40, deadline=None)
@given(
    field_name=st.sampled_from(["F2", "F3", "Q"]),
    index=st.integers(0, 1),
    which=st.integers(0, ACTION_CASES - 1),
    data=st.data(),
)
def test_element_and_power_actions_are_trusted_rows(field_name, index, which, data):
    module = _action_case(field_name, index)[which]
    field = module.algebra.field
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=module.algebra.dim, max_size=module.algebra.dim))
    assert_trusted(module.element_action(tuple(field.from_int(c) for c in coeffs)))
    for action in power_module(module, data.draw(st.integers(0, 3))).actions:
        assert_trusted(action)


def test_deep_monomial_operators_are_built_without_recursion():
    # x^119 in k[x]/(x^120) is 119 steps down the monomial tree; building its
    # operator must not take a stack frame per step.
    module = regular_module(algebra(GF(2), ["x"], ["x^120"]))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        action = module.element_action(tuple(int(i == 119) for i in range(120)))
    finally:
        sys.setrecursionlimit(limit)
    assert action.rows[119][0] == 1 and sum(map(sum, action.rows)) == 1


def operator_of(module, r):
    """The action of r on module as the sum of its scaled monomial operators."""
    field, n = module.algebra.field, module.dim
    total = [[field.zero] * n for _ in range(n)]
    for op, c in zip(monomial_operators(module), r):
        for acc, row in zip(total, op.rows):
            for j, x in enumerate(row):
                acc[j] += c * x
    return Matrix(field, total, ncols=n)


def kbasis_ideal_times(ideal, module, vectors):
    """Span of r*v over a k-basis r of the ideal and the given vectors."""
    ops = [operator_of(module, r) for r in ideal.carrier.rows]
    vecs = [op.apply(v) for op in ops for v in vectors]
    return Subspace.from_vectors(module.algebra.field, module.dim, vecs)


def kbasis_joint_kernel(ideal, module, proj=None):
    """Joint kernel over a k-basis r of the ideal of r, or of proj @ r."""
    ops = [operator_of(module, r) for r in ideal.carrier.rows]
    if not ops:
        return Subspace.full(module.algebra.field, module.dim)
    return kernel(vstack([op if proj is None else proj @ op for op in ops]))


@settings(max_examples=60, deadline=None)
@given(
    field_name=st.sampled_from(["F2", "F3", "Q"]),
    index=st.integers(0, 1),
    which=st.integers(0, ACTION_CASES - 1),
    data=st.data(),
)
def test_ideal_actions_through_generators_equal_kbasis_actions(field_name, index, which, data):
    module = _action_case(field_name, index)[which]
    R = module.algebra
    field = R.field
    coeffs = st.lists(st.integers(-4, 4), min_size=R.dim - 1, max_size=R.dim - 1)
    elements = data.draw(st.lists(coeffs, min_size=1, max_size=3))
    ideal = ideal_from_elements(R, [tuple(field.from_int(c) for c in [0] + e) for e in elements])
    vec = data.draw(st.lists(st.integers(-4, 4), min_size=module.dim, max_size=module.dim))
    sub = span_submodule(module, [tuple(field.from_int(c) for c in vec)])

    standard = Matrix.identity(field, module.dim).cols()
    assert ideal_times_module(ideal, module).carrier == kbasis_ideal_times(ideal, module, standard)
    assert torsion_submodule(module, ideal).carrier == kbasis_joint_kernel(ideal, module)
    proj = sub.carrier.projection()
    assert colon(sub, ideal).carrier == kbasis_joint_kernel(ideal, module, proj)
    product = ideal_times_submodule(ideal, sub)
    assert product.module is module
    assert product.carrier == kbasis_ideal_times(ideal, module, sub.carrier.rows)

    gens = submodule_generators(ideal)
    reg = regular_module(R)
    m_ideal = kbasis_ideal_times(R.max_ideal(), reg, ideal.carrier.rows)
    assert len(gens) == ideal.dim - m_ideal.dim
    inclusion = ideal.carrier.basis
    assert gens == tuple(inclusion.apply(g) for g in ideal.as_module().free_cover().generators)


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
    assert pa @ ib == Matrix.zeros(dual_numbers.field, 2, 2)


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


def all_elements_cyclic_submodules(module):
    """The cyclic submodules by their definition: Rv closed up for every v."""
    vectors = itertools.product(module.algebra.field.elements(), repeat=module.dim)
    return sorted({fixpoint_closure(module, [v]) for v in vectors}, key=Subspace.sort_key)


def all_elements_cyclic_ideals(R):
    return all_elements_cyclic_submodules(regular_module(R))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize(
    "variables, relations",
    [
        (["x"], ["x^4"]),
        (["x", "y"], ["x^2", "x*y", "y^2"]),
        (["x", "y"], ["x^2", "y^2"]),
        (["x", "y"], ["x^3", "x*y", "y^2"]),
    ],
)
def test_cyclic_ideals_equal_the_all_elements_definition(p, variables, relations):
    # Same set and order; over F3, (x + y) and (x + 2y) are different ideals
    # of the fat point, so a lost scalar class shows here.
    R = algebra(GF(p), variables, relations)
    assert [i.carrier for i in enumerate_cyclic_ideals(R)] == all_elements_cyclic_ideals(R)


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


def all_vectors_submodules(module):
    """Every submodule, breadth first: each is a smaller one closed up with
    one more vector, tried over all p^dim vectors."""
    field = module.algebra.field
    vectors = list(itertools.product(field.elements(), repeat=module.dim))
    found = [Subspace.zero(field, module.dim)]
    for current in found:
        for v in vectors:
            if current.coords_of(v) is None:
                bigger = fixpoint_closure(module, list(current.rows) + [v])
                if bigger not in found:
                    found.append(bigger)
    return sorted(found, key=Subspace.sort_key)


def _enumeration_case(p, name):
    """A module other than R over F_p, small enough for the all-vectors oracles."""
    field = GF(p)
    fat = algebra(field, ["x", "y"], ["x^2", "x*y", "y^2"])
    if name == "dual(R)":
        return matlis_dual(regular_module(algebra(field, ["x", "y"], ["x^3", "x*y", "y^2"]))).rep
    if name == "R^2":
        return free_module(algebra(field, ["x"], ["x^2"]), 2)
    if name == "R/m":
        return module_from_presentation(fat, [["x", "y"]])
    if name == "socle":
        return socle(regular_module(fat)).as_module()
    return ideal_from_elements(algebra(field, ["x", "y"], ["x^2", "y^3"]), ["x", "y^2"]).as_module()


@pytest.mark.parametrize("name", ["dual(R)", "R^2", "R/m", "socle", "ideal (x, y^2)"])
@pytest.mark.parametrize("p", [2, 3])
def test_enumerations_equal_the_all_vectors_definitions(p, name):
    # The Nakayama skip, the block skip and the closure under sums against
    # Rv for every v and the breadth-first search over every vector, on
    # modules whose bases are not ordered by degree as R's is.
    module = _enumeration_case(p, name)
    cyclic = [c.carrier for c in _cyclic_submodules(module)]
    assert cyclic == all_elements_cyclic_submodules(module)
    assert all(c.module is module for c in _cyclic_submodules(module))
    subs = enumerate_submodules(module)
    assert [s.carrier for s in subs] == all_vectors_submodules(module)
    assert len(subs) > len(cyclic) or name == "R/m"


def test_dimension_cap_enforced():
    from tracelab.errors import DimensionCapExceeded

    with pytest.raises(DimensionCapExceeded):
        build_algebra(PolynomialPresentation(QQ, ["x"], ["x^6"], dim_cap=4))
    # The cap also bounds the free module R^n a presentation starts from.
    R = build_algebra(PolynomialPresentation(QQ, ["x"], ["x^2"], dim_cap=6))
    assert module_from_presentation(R, [], n_gens=3).dim == 6
    with pytest.raises(DimensionCapExceeded, match="R\\^4 has dimension 8"):
        module_from_presentation(R, [], n_gens=4)
    with pytest.raises(DimensionCapExceeded):
        module_from_presentation(R, [], n_gens=10**12)


def test_enumeration_cap_enforced():
    from tracelab.errors import EnumerationCapExceeded

    R = algebra(GF(5), ["x"], ["x^4"])
    with pytest.raises(EnumerationCapExceeded):
        enumerate_cyclic_ideals(R, cap=100)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_submodules(regular_module(algebra(GF(2), ["x"], ["x^4"])), cap=2)
