"""Trace, cotrace, duality, Ext1/Tor1: frozen examples and brute-force oracles.

The brute-force oracles enumerate *all* linear maps over F_2 and filter the
module homomorphisms by definition, fully independent of the free-cover
solver they check.  The differential tests compare Hom and tensor products
against the dim M * dim N intertwiner system and Kronecker quotient, the
tensor product counted through Hom(M, dual N) against the quotient of N^v by
the syzygy relations, the functors that read Hom in generator coordinates
against the dense maps, and the counted Ext1 and Tor1 against the cokernel
and kernel that define them.
"""

import itertools
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

import tracelab.linalg
from tracelab.artin import (
    PolynomialPresentation,
    Submodule,
    _joint_kernel,
    annihilator,
    build_algebra,
    colon,
    free_module,
    ideal_from_elements,
    ideal_times_module,
    minimal_generators,
    module_from_presentation,
    power_module,
    regular_module,
    socle,
    submodule_generators,
    torsion_submodule,
)
from tracelab.errors import ExtNotVanishing, FieldNotFinite
from tracelab.homological import (
    _hom_in_power,
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
    is_good_ideal,
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
from tracelab.cli import main as cli_main
from tracelab.linalg import GF, QQ, Matrix, Subspace, _dense, _scalar_rows, kernel, rank, vstack
from tracelab.verifier import _built, default_catalog, module_pool


def algebra(field, variables, relations):
    return build_algebra(PolynomialPresentation(field, variables, relations))


@pytest.fixture(scope="module")
def qf_ring():
    return algebra(QQ, ["x"], ["x^2"])  # k[x]/(x^2), Quasi-Frobenius


@pytest.fixture(scope="module")
def fat_point():
    return algebra(QQ, ["x", "y"], ["x^2", "x*y", "y^2"])  # not QF


@pytest.fixture(scope="module")
def qf_ring_f2():
    return algebra(GF(2), ["x"], ["x^2"])


@pytest.fixture(scope="module")
def fat_point_f2():
    return algebra(GF(2), ["x", "y"], ["x^2", "x*y", "y^2"])


# -- brute-force oracles -------------------------------------------------------


def all_linear_maps(field, source_dim, target_dim):
    shape = target_dim * source_dim
    for entries in itertools.product(field.elements(), repeat=shape):
        yield Matrix(
            field,
            [entries[i * source_dim : (i + 1) * source_dim] for i in range(target_dim)],
            ncols=source_dim,
        )


def enumerate_module_maps(source, target):
    """All module homomorphisms source -> target, by definition."""
    field = source.algebra.field
    for mat in all_linear_maps(field, source.dim, target.dim):
        if all(mat @ bs == bt @ mat for bs, bt in zip(source.actions, target.actions)):
            yield mat


def brute_force_trace(ideal, module):
    rep = ideal.as_module()
    vecs = []
    for f in enumerate_module_maps(rep, module):
        vecs.extend(f.cols())
    return Subspace.from_vectors(module.algebra.field, module.dim, vecs)


def brute_force_cotrace(ideal, module):
    rep = ideal.as_module()
    dual_rep = matlis_dual(rep).rep
    field = module.algebra.field
    result = Subspace.full(field, module.dim)
    for f in enumerate_module_maps(module, dual_rep):
        from tracelab.linalg import kernel

        result = result.intersect(kernel(f))
    return result


# -- Hom -----------------------------------------------------------------------


def test_hom_from_ring_is_module(qf_ring, fat_point):
    for R in (qf_ring, fat_point):
        M = module_from_presentation(R, [["x"]])
        assert hom_module(regular_module(R), M).dim == M.dim


def test_hom_line_into_fat_point_ring(fat_point):
    # The line (x) is a copy of k; maps land in the two-dimensional socle.
    R = regular_module(fat_point)
    ix = ideal_from_elements(fat_point, ["x"])
    rep = ix.as_module()
    assert hom_module(rep, R).dim == 2


def test_hom_into_zero_module(qf_ring):
    zero = module_from_presentation(qf_ring, [["1"]])
    assert hom_module(regular_module(qf_ring), zero).dim == 0


def test_hom_dimension_matches_brute_force(fat_point_f2, qf_ring_f2):
    cases = []
    R = regular_module(fat_point_f2)
    ix = ideal_from_elements(fat_point_f2, ["x"]).as_module()
    cases.append((ix, R))
    S = regular_module(qf_ring_f2)
    cases.append((S, S))
    k = module_from_presentation(qf_ring_f2, [["x"]])
    cases.append((k, S))
    cases.append((S, k))
    for source, target in cases:
        expected = sum(1 for _ in enumerate_module_maps(source, target))
        field = source.algebra.field
        assert field.order ** hom_module(source, target).dim == expected


def test_hom_rep_action_is_postcomposition(qf_ring_f2):
    S = regular_module(qf_ring_f2)
    hom = _hom_in_power(S, S).as_module()
    assert hom.dim == hom_module(S, S).dim == 2
    # x acts nilpotently on End(R) for R = k[x]/(x^2)
    act = hom.actions[0]
    assert not any(map(any, (act @ act).rows))


# -- trace -----------------------------------------------------------------------


def test_trace_of_socle_line_is_socle(fat_point):
    # Any nonzero ideal inside the socle has trace equal to the whole socle.
    R = regular_module(fat_point)
    ix = ideal_from_elements(fat_point, ["x"])
    assert trace(ix, R).carrier == socle(R).carrier
    assert trace(ix, R).dim == 2


def test_trace_of_unit_ideal(fat_point):
    R = regular_module(fat_point)
    full = ideal_from_elements(fat_point, ["1"])
    assert trace(full, R).carrier == R.full_submodule().carrier


def test_trace_of_zero_ideal(fat_point):
    R = regular_module(fat_point)
    zero = ideal_from_elements(fat_point, [])
    assert trace(zero, R).dim == 0


def test_trace_against_brute_force(fat_point_f2, qf_ring_f2):
    for R, gens in (
        (fat_point_f2, ["x"]),
        (fat_point_f2, ["x", "y"]),
        (qf_ring_f2, ["x"]),
    ):
        reg = regular_module(R)
        ideal = ideal_from_elements(R, gens)
        assert trace(ideal, reg).carrier == brute_force_trace(ideal, reg)


# -- cotrace ----------------------------------------------------------------------


def test_cotrace_of_unit_ideal_vanishes(qf_ring, fat_point):
    for R in (qf_ring, fat_point):
        reg = regular_module(R)
        full = ideal_from_elements(R, ["1"])
        assert cotrace(full, reg).dim == 0


def test_cotrace_of_zero_ideal_is_everything(qf_ring):
    reg = regular_module(qf_ring)
    zero = ideal_from_elements(qf_ring, [])
    assert cotrace(zero, reg).dim == reg.dim


def test_cotrace_in_dual_numbers(qf_ring):
    reg = regular_module(qf_ring)
    ix = ideal_from_elements(qf_ring, ["x"])
    expected = torsion_submodule(reg, ix).carrier
    assert cotrace(ix, reg).carrier == expected
    assert cotrace(ix, reg).dim == 1


def test_cotrace_against_brute_force(fat_point_f2, qf_ring_f2):
    for R, gens in ((fat_point_f2, ["x"]), (qf_ring_f2, ["x"])):
        reg = regular_module(R)
        ideal = ideal_from_elements(R, gens)
        assert cotrace(ideal, reg).carrier == brute_force_cotrace(ideal, reg)


# -- Matlis duality ----------------------------------------------------------------


def test_dual_dimensions_and_double_dual(fat_point):
    R = regular_module(fat_point)
    dual = matlis_dual(R)
    assert dual.rep.dim == R.dim
    assert matlis_dual(dual.rep).rep.actions == R.actions


def test_dual_of_ring_has_simple_socle(fat_point, qf_ring):
    for R in (fat_point, qf_ring):
        dual = matlis_dual(regular_module(R)).rep
        assert socle(dual).dim == 1


def test_ann_in_dual_extremes(fat_point):
    R = regular_module(fat_point)
    dual = matlis_dual(R)
    assert ann_in_dual(dual, R.full_submodule()).dim == 0
    assert ann_in_dual(dual, R.zero_submodule()).dim == R.dim


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_zero_cuts_out_nothing(field):
    # M[0], (N :_M 0) and cotrace(0, M) are joint kernels of no map (0 has no
    # generators, and Hom(M, dual(0)) = 0), so each is all of M; and the
    # annihilator of 0 in the dual is the whole dual.
    R = algebra(field, ["x", "y"], ["x^3", "y^2"])
    reg, zero = regular_module(R), ideal_from_elements(R, [])
    for module in (reg, matlis_dual(reg).rep, module_from_presentation(R, [["x", "0"], ["y", "x"]])):
        full = module.full_submodule()
        assert torsion_submodule(module, zero) == full
        assert cotrace(zero, module) == full
        for sub in (module.zero_submodule(), socle(module), full):
            assert colon(sub, zero) == full
        dual = matlis_dual(module)
        assert ann_in_dual(dual, module.zero_submodule()) == dual.rep.full_submodule()


def test_ann_in_dual_of_socle_is_radical_of_dual(fat_point):
    # Ann_{M*}(M[m]) = m M*, here with M = R.
    R = regular_module(fat_point)
    dual = matlis_dual(R)
    left = ann_in_dual(dual, torsion_submodule(R, fat_point.max_ideal()))
    right = ideal_times_module(fat_point.max_ideal(), dual.rep)
    assert left.carrier == right.carrier


def test_dual_exchanges_trace_and_cotrace(fat_point, qf_ring):
    for R, gens in ((fat_point, ["x"]), (fat_point, ["y"]), (qf_ring, ["x"])):
        reg = regular_module(R)
        ideal = ideal_from_elements(R, gens)
        dual = matlis_dual(reg)
        assert trace(ideal, dual.rep).carrier == ann_in_dual(dual, cotrace(ideal, reg)).carrier
        assert cotrace(ideal, dual.rep).carrier == ann_in_dual(dual, trace(ideal, reg)).carrier


# -- canonical maps ----------------------------------------------------------------


def test_homothety_surjective_for_cyclic(qf_ring):
    reg = regular_module(qf_ring)
    ix = ideal_from_elements(qf_ring, ["x"])
    assert is_homothety_onto(ix, reg)


def test_homothety_for_unit_and_zero_ideal(fat_point):
    reg = regular_module(fat_point)
    assert is_homothety_onto(ideal_from_elements(fat_point, ["1"]), reg)
    zero = ideal_from_elements(fat_point, [])
    assert is_homothety_onto(zero, reg)
    assert hom_module(zero.as_module(), ideal_times_module(zero, reg).as_module()).dim == 0


def colon_to_hom_by_dense_maps(sub, ideal):
    """(domain, matrix) of u |-> (r |-> r u) from (Y :_X I) to Hom(I, Y), with
    a column per basis vector of the domain in the dense basis of Hom(I, Y).
    Its kernel is checked to be (Y :_X I)[I], the colon lemma."""
    ambient = sub.module
    domain = colon(sub, ideal)
    rows = domain.carrier.rows
    matrix = dense_multiplication_coords(ideal.as_module(), sub.as_module(), ideal, ambient, rows, sub=sub)
    lifted = [domain.carrier.vector(c) for c in kernel(matrix).rows]
    expected = domain.carrier.intersect(torsion_submodule(ambient, ideal).carrier)
    assert Subspace.from_vectors(ambient.algebra.field, ambient.dim, lifted) == expected
    return domain, matrix


def test_colon_to_hom_surjective_into_injective(fat_point):
    # X = dual of R is injective, so the map onto Hom(I, Y) is onto.
    reg = regular_module(fat_point)
    X = matlis_dual(reg).rep
    ix = ideal_from_elements(fat_point, ["x"])
    _, matrix = colon_to_hom_by_dense_maps(X.full_submodule(), ix)
    assert rank(matrix) == matrix.nrows


def test_colon_to_hom_unit_ideal_is_identity_like(fat_point):
    y = ideal_from_elements(fat_point, ["x"])  # Y = the line (x), a submodule of R
    full = ideal_from_elements(fat_point, ["1"])
    domain, matrix = colon_to_hom_by_dense_maps(y, full)
    assert kernel(matrix).dim == 0 and rank(matrix) == matrix.nrows
    assert domain.carrier == y.carrier


def test_tensor_with_ring(fat_point):
    reg = regular_module(fat_point)
    assert tensor_product(reg, regular_module(fat_point)).dim == reg.dim
    M = module_from_presentation(fat_point, [["x"]])
    assert tensor_product(M, regular_module(fat_point)).dim == M.dim


def test_tensor_of_residue_fields(qf_ring):
    k = module_from_presentation(qf_ring, [["x"]])
    assert tensor_product(k, k).dim == 1


def test_tensor_with_zero(qf_ring):
    zero = module_from_presentation(qf_ring, [["1"]])
    assert tensor_product(regular_module(qf_ring), zero).dim == 0


def test_tensor_eval_injective_for_cyclic(qf_ring):
    reg = regular_module(qf_ring)
    ix = ideal_from_elements(qf_ring, ["x"])
    assert is_tensor_eval_injective(reg, ix)


def test_tensor_eval_unit_and_zero(fat_point):
    reg = regular_module(fat_point)
    assert is_tensor_eval_injective(reg, ideal_from_elements(fat_point, ["1"]))
    zero = ideal_from_elements(fat_point, [])
    assert is_tensor_eval_injective(reg, zero)
    assert tensor_product(zero.as_module(), torsion_submodule(reg, zero).quotient()[0]).dim == 0


def test_tensor_eval_is_the_homothety_of_the_dual(fat_point):
    # I = m = k^2 in k[x,y]/(x,y)^2, E = dual(R), mE = k.  Evaluation:
    # k tensor m has dim 2 = dim mR, but E/E[m] tensor m = k^2 tensor m has
    # dim 4 > dim mE = 1.  Homothety: dim R/R[m] = 1 < dim Hom(m, m) = 4, but
    # dim E/E[m] = 2 = dim Hom(m, mE).  So each holds on one side only.
    reg = regular_module(fat_point)
    dual = matlis_dual(reg).rep
    m = fat_point.max_ideal()
    assert is_tensor_eval_injective(reg, m) and not is_homothety_onto(m, reg)
    assert not is_tensor_eval_injective(dual, m) and is_homothety_onto(m, dual)


# -- Ext1 and Tor1 -----------------------------------------------------------------


def test_ext1_vanishes_over_qf(qf_ring):
    reg = regular_module(qf_ring)
    ix = ideal_from_elements(qf_ring, ["x"])
    assert ext1(ix, reg).dim == 0


def test_ext1_detects_non_excellence(fat_point):
    reg = regular_module(fat_point)
    ix = ideal_from_elements(fat_point, ["x"])
    assert ext1(ix, reg).dim == 1  # socle/(x) is one-dimensional


def test_ext1_of_unit_ideal(fat_point):
    reg = regular_module(fat_point)
    assert ext1(ideal_from_elements(fat_point, ["1"]), reg).dim == 0


def test_tor1_of_free_module(fat_point):
    free = free_module(fat_point, 2)
    ix = ideal_from_elements(fat_point, ["x"])
    assert tor1(free, ix).dim == 0


def test_tor1_of_residue_field(fat_point):
    # k = R/m, presented by one generator with both variables killing it.
    k = module_from_presentation(fat_point, [["x", "y"]])
    assert k.dim == 1
    ix = ideal_from_elements(fat_point, ["x"])
    assert tor1(k, ix).dim == 1


def test_ext1_and_tor1_with_equal_actions_are_one_module(fat_point):
    # Both are k with zero action; each is known by its dimension, so they
    # are equal values.
    reg = regular_module(fat_point)
    k = module_from_presentation(fat_point, [["x", "y"]])
    ix = ideal_from_elements(fat_point, ["x"])
    e, t = ext1(ix, reg), tor1(k, ix)
    assert e == t
    assert e.dim == 1


def test_tor1_matches_ext1_of_dual(fat_point, qf_ring):
    for R, gens, pres in (
        (fat_point, ["x"], [["x", "y"]]),
        (fat_point, ["x", "y"], [["x"]]),
        (qf_ring, ["x"], [["x"]]),
    ):
        M = module_from_presentation(R, pres)
        ideal = ideal_from_elements(R, gens)
        dual = matlis_dual(M).rep
        assert tor1(M, ideal).dim == ext1(ideal, dual).dim


# -- Ext1 and Tor1 against their definitions -----------------------------------


def _multiplication_coords(hom, ideal, module, vectors, target):
    """Coordinates in hom = Hom(I, target) of r |-> r x, one row per x in vectors.

    The map's values on the ideal's generators g_i (its cover generators)
    are the g_i x in module, read in the coordinates of its submodule
    target.  A tuple outside hom breaks a syzygy, so it is no homomorphism.
    """
    ops = [module.element_action(g) for g in submodule_generators(ideal)]
    rows = []
    for x in vectors:
        images = [target.carrier.coords_of(op.apply(x)) for op in ops]
        assert None not in images, "I x escaped the target of the hom"
        coords = hom.coords_of([e for y in images for e in y])
        assert coords is not None, "r |-> r x is not a homomorphism on the generators"
        rows.append(coords)
    return rows


def ext1_by_cokernel(ideal, module):
    """dim Ext1(R/I, M) by definition: the cokernel of the restriction
    Hom(R, M) = M -> Hom(I, M), x |-> (r |-> r x), over Hom's rep in M^v.
    _multiplication_coords fails if some r |-> r x is no homomorphism."""
    field = module.algebra.field
    rep = ideal.as_module()
    hom = hom_module(rep, module)
    identity = Matrix.identity(field, module.dim).rows
    restriction = _multiplication_coords(hom, ideal, module, identity, module.full_submodule())
    image = Submodule(_hom_in_power(rep, module).as_module(), Subspace.from_vectors(field, hom.dim, restriction))
    return image.quotient()[0].dim


class RelationTensor(NamedTuple):
    """M tensor_R N as a quotient of N^v, v the generator count of M: relations
    is the submodule of N^v divided by, block i holding the coefficient of the
    generator g_i, and relations.quotient() builds the product's rep."""

    relations: Submodule

    @property
    def dim(self):
        return self.relations.module.dim - self.relations.dim


def tensor_by_relations(left, right):
    """M tensor_R N by generators and relations, the oracle for the dimension
    tensor_product counts through Hom(M, dual N).  With M = R^v / K it is
    N^v / (K tensor N): the relations are spanned by (z_1 n, ..., z_v n) over
    the syzygies z of M's free cover and the basis vectors n of N."""
    cover = left.free_cover()
    ambient = power_module(right, len(cover.generators))
    vecs = []
    for z in cover.syzygies:
        vecs.extend(vstack([right.element_action(zi) for zi in z]).cols())
    carrier = Subspace.from_vectors(left.algebra.field, ambient.dim, vecs, check=False)
    return RelationTensor(Submodule(ambient, carrier, check=False))


def _evaluation(module, ideal, generators, tp):
    """Matrix of the evaluation tp -> M induced by (n_1..n_v) |-> sum_i n_i g_i.

    The g_i are the left factor's cover generators as vectors of M, and I^v
    is in the N^v coordinates of tp, so block i is the k-basis rows of I
    under the orbit matrix of g_i (column s is b_s g_i).  The map on I^v
    must kill the tensor relations exactly; that is checked here.  On tp it
    is the map on the lifts of tp's basis vectors.
    """
    field = module.algebra.field
    orbits = [Matrix.from_cols(field, module.orbit(g), nrows=module.dim) for g in generators]
    full = Matrix.from_cols(field, [o.apply(row) for o in orbits for row in ideal.carrier.rows], nrows=module.dim)
    assert not any(any(full.apply(row)) for row in tp.relations.carrier.rows)
    return tp.relations.carrier._on_lifts(full)


def tor1_by_kernel(module, ideal):
    """dim Tor1(M, R/I) by definition: the kernel of the evaluation M tensor I -> M."""
    tp = tensor_by_relations(module, ideal.as_module())
    assert tp.dim == tensor_product(module, ideal.as_module()).dim
    rep = tp.relations.quotient()[0]
    return _joint_kernel(rep, [_evaluation(module, ideal, module.free_cover().generators, tp)]).dim


@st.composite
def functor_inputs(draw):
    """(I, M): a catalog algebra, M presented by a random matrix of up to two
    generators and relations (or its Matlis dual), and I with one or two
    random generators in m.  Ring elements are drawn as {exponents: coefficient}."""
    algebra = _built(draw(st.sampled_from(default_catalog().algebras)))
    monomial = st.tuples(*[st.integers(0, 2)] * len(algebra.variables))
    element = st.dictionaries(monomial.filter(any), st.sampled_from([1, -1, 2]), max_size=3)
    n, relations = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    module = module_from_presentation(algebra, [[draw(element) for _ in range(relations)] for _ in range(n)])
    if draw(st.booleans()):
        module = matlis_dual(module).rep
    gens = draw(st.lists(element, min_size=1, max_size=2))
    return ideal_from_elements(algebra, [algebra.element_from_poly(g) for g in gens]), module


@settings(max_examples=80, deadline=None, derandomize=True)
@given(functor_inputs())
def test_counted_ext1_and_tor1_equal_their_definitions(inputs):
    ideal, module = inputs
    assert ext1(ideal, module).dim == ext1_by_cokernel(ideal, module)
    assert tor1(module, ideal).dim == tor1_by_kernel(module, ideal)


# -- the primitives' short routes against the general ones -----------------------


def element_action_by_cover(module, r):
    """Multiplication by r as the module map with values r g_i on the cover
    generators g_i, r g_i being the cover matrix applied to r in block i."""
    cover, z = module.free_cover(), (module.algebra.field.zero,) * module.algebra.dim
    v = len(cover.generators)
    values = tuple(x for i in range(v) for x in cover.matrix.apply(z * i + r + z * (v - 1 - i)))
    return cover.maps(module, [values])[0]


@st.composite
def acted_on(draw):
    """(M, r) over a catalog algebra: M is R, dual(R), R^2, the zero module
    or a random presentation or its dual, and r has a random constant and
    linear part and, half the time, terms of degree 2 to 4."""
    algebra = _built(draw(st.sampled_from(default_catalog().algebras)))
    n, coeff = len(algebra.variables), st.sampled_from([0, 1, -1, 2])
    reg = regular_module(algebra)
    kind = draw(st.sampled_from(["R", "dual", "R^2", "zero", "presented", "dual presented"]))
    if kind in ("R", "dual"):
        module = reg
    elif kind == "R^2":
        module = free_module(algebra, 2)
    elif kind == "zero":
        module = module_from_presentation(algebra, [["1"]])
    else:
        entry = st.dictionaries(st.tuples(*[st.integers(0, 2)] * n).filter(any), coeff, max_size=2)
        rows, relations = draw(st.integers(1, 2)), draw(st.integers(0, 2))
        module = module_from_presentation(algebra, [[draw(entry) for _ in range(relations)] for _ in range(rows)])
    if kind.startswith("dual"):
        module = matlis_dual(module).rep
    poly = {(0,) * n: draw(coeff)}
    poly.update({tuple(int(j == i) for j in range(n)): draw(coeff) for i in range(n)})
    if draw(st.booleans()):
        higher = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: sum(e) >= 2)
        poly.update(draw(st.dictionaries(higher, coeff.filter(bool), min_size=1, max_size=2)))
    return module, algebra.element_from_poly(poly)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(acted_on())
def test_an_element_acts_as_its_map_on_the_cover_generators(inputs):
    module, r = inputs
    assert module.element_action(r) == element_action_by_cover(module, r)


def tensor_eval_by_quotient_cover(module, ideal):
    """(injective, dim) of (M/M[I]) tensor I -> M built as M/M[I] tensor I:
    the cover generators of M/M[I], lifted to M, feed _evaluation."""
    torsion = torsion_submodule(module, ideal)
    quotient = torsion.quotient()[0]
    tp = tensor_by_relations(quotient, ideal.as_module())
    assert tp.dim == tensor_product(quotient, ideal.as_module()).dim
    keep = torsion.carrier.nonpivots()
    lifts = [_dense(dict(zip(keep, g)), module.dim, 0) for g in quotient.free_cover().generators]
    return rank(_evaluation(module, ideal, lifts, tp)) == tp.dim, tp.dim


@settings(max_examples=40, deadline=None, derandomize=True)
@given(functor_inputs())
def test_tensor_eval_with_the_ideal_on_the_left_equals_the_quotient_route(inputs):
    ideal, module = inputs
    tensor = tensor_product(ideal.as_module(), torsion_submodule(module, ideal).quotient()[0])
    assert (is_tensor_eval_injective(module, ideal), tensor.dim) == tensor_eval_by_quotient_cover(module, ideal)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(functor_inputs())
def test_tensor_through_the_dual_equals_the_relation_quotient(inputs):
    ideal, module = inputs
    for right in (ideal.as_module(), torsion_submodule(module, ideal).quotient()[0], matlis_dual(module).rep):
        assert tensor_product(module, right).dim == tensor_by_relations(module, right).dim


def homothety_onto_by_dense_maps(ideal, module):
    """Whether x |-> (r |-> r x) from M onto Hom(I, IM) is onto, by the rank of
    its matrix in the dense basis of Hom(I, IM).  Its kernel is checked to be M[I]."""
    image = ideal_times_module(ideal, module)
    basis = Matrix.identity(module.algebra.field, module.dim).rows
    dense = dense_multiplication_coords(ideal.as_module(), image.as_module(), ideal, module, basis, sub=image)
    assert kernel(dense) == torsion_submodule(module, ideal).carrier
    return rank(dense) == dense.nrows


@settings(max_examples=40, deadline=None, derandomize=True)
@given(functor_inputs())
def test_homothety_onto_equals_the_dense_route(inputs):
    ideal, module = inputs
    assert is_homothety_onto(ideal, module) == homothety_onto_by_dense_maps(ideal, module)


def test_containment_between_different_ideals():
    # (x) and (y) have one dimension and neither holds the other; (x^2) lies in (x).
    R = algebra(QQ, ["x", "y"], ["x^3", "y^3"])
    x, y, x2 = (ideal_from_elements(R, [g]).carrier for g in ("x", "y", "x^2"))
    assert x.dim == y.dim and x.contains(x2) and not x2.contains(x)
    assert not x.contains(y) and not y.contains(x)


def test_is_cyclic_ideal(fat_point):
    assert is_cyclic_ideal(ideal_from_elements(fat_point, []))
    assert is_cyclic_ideal(ideal_from_elements(fat_point, ["x"]))
    assert is_cyclic_ideal(ideal_from_elements(fat_point, ["1"]))
    assert not is_cyclic_ideal(fat_point.max_ideal())


# -- injective embeddings ------------------------------------------------------------


def test_embed_dual_of_ring_is_identity_sized(fat_point):
    dual = matlis_dual(regular_module(fat_point)).rep
    X, incl = embed_into_injective(dual)
    assert X.dim == dual.dim
    assert incl.nrows == X.dim and incl.ncols == dual.dim


def test_embed_residue_field(qf_ring):
    k = module_from_presentation(qf_ring, [["x"]])
    X, incl = embed_into_injective(k)
    assert X.dim == 2  # one copy of the dual of R


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_embed_zero_module(field):
    zero = module_from_presentation(algebra(field, ["x", "y"], ["x^3", "y^2"]), [], n_gens=0)
    X, incl = embed_into_injective(zero)
    assert X.dim == 0 and (incl.nrows, incl.ncols) == (0, 0)


def test_embed_qf_ring_into_itself_sized(qf_ring):
    reg = regular_module(qf_ring)
    X, incl = embed_into_injective(reg)
    assert X.dim == reg.dim  # R is self-injective


def test_trace_via_colon_matches_trace(fat_point, qf_ring):
    from tracelab.artin import Submodule
    from tracelab.linalg import Subspace as _S

    for R, pres, gens in (
        (fat_point, [["x"]], ["y"]),
        (fat_point, [["x", "y"]], ["x"]),
        (qf_ring, [["x"]], ["x"]),
    ):
        M = module_from_presentation(R, pres)
        ideal = ideal_from_elements(R, gens)
        X, incl = embed_into_injective(M)
        member = Submodule(
            X,
            _S.from_vectors(R.field, X.dim, incl.cols()),
            check=False,
        )
        routed = trace_via_colon(member, ideal)
        direct = trace(ideal, M)
        mapped = _S.from_vectors(
            R.field, X.dim, [incl.apply(c) for c in direct.carrier.rows]
        )
        assert routed.carrier == mapped


def test_trace_via_colon_requires_ext_vanishing(fat_point):
    reg = regular_module(fat_point)
    ix = ideal_from_elements(fat_point, ["x"])
    with pytest.raises(ExtNotVanishing):
        trace_via_colon(reg.full_submodule(), ix)  # Ext1(R/I, R) != 0 here


# -- predicates -----------------------------------------------------------------------


def test_qf_detection(qf_ring, fat_point):
    assert is_quasi_frobenius(qf_ring)
    assert not is_quasi_frobenius(fat_point)


def test_excellence_exhaustive_over_f2(qf_ring_f2, fat_point_f2):
    v = excellence_verdict(regular_module(qf_ring_f2))
    assert v.holds and v.evidence == "exhaustive"
    w = excellence_verdict(regular_module(fat_point_f2))
    assert not w.holds and w.evidence == "exhaustive"
    assert w.witness is not None and w.witness.dim == 1


def test_excellence_over_q_needs_seed_or_ideals(fat_point):
    with pytest.raises(FieldNotFinite):
        excellence_verdict(regular_module(fat_point))
    v = excellence_verdict(regular_module(fat_point), seed=11)
    assert not v.holds and v.evidence == "sampled"


def test_coexcellence_of_free_modules(fat_point_f2):
    v = coexcellence_verdict(regular_module(fat_point_f2))
    assert v.holds and v.evidence == "exhaustive"


def test_good_ideals(fat_point):
    m = fat_point.max_ideal()
    assert is_good_ideal(m)  # m equals the socle here, an annihilator ideal
    ix = ideal_from_elements(fat_point, ["x"])
    assert not is_good_ideal(ix)


def test_excellent_iff_qf_small_cases(qf_ring_f2, fat_point_f2):
    assert excellence_verdict(regular_module(qf_ring_f2)).holds == is_quasi_frobenius(qf_ring_f2)
    assert excellence_verdict(regular_module(fat_point_f2)).holds == is_quasi_frobenius(
        fat_point_f2
    )


def test_endomorphism_commutativity(qf_ring_f2, fat_point_f2):
    for gens in ([], ["x"], ["1"]):
        assert has_commutative_endomorphisms(ideal_from_elements(qf_ring_f2, gens))
    # The socle of the fat point splits as (x) + (y) with maps between the
    # summands, so its endomorphism ring is a 2x2 matrix algebra: not
    # commutative.
    assert not has_commutative_endomorphisms(fat_point_f2.max_ideal())


def test_ideal_excellence_and_coexcellence_flags(qf_ring, fat_point):
    reg_qf = regular_module(qf_ring)
    ix = ideal_from_elements(qf_ring, ["x"])
    assert is_ideal_excellent(ix, reg_qf)
    assert is_ideal_coexcellent(ix, reg_qf)
    reg_fat = regular_module(fat_point)
    jx = ideal_from_elements(fat_point, ["x"])
    assert not is_ideal_excellent(jx, reg_fat)
    # R itself is free, hence flat, hence coexcellent for every ideal.
    assert is_ideal_coexcellent(jx, reg_fat)
    # The residue field is not: cotrace = m*k = 0 but k[(x)] = k.
    k = module_from_presentation(fat_point, [["x", "y"]])
    assert not is_ideal_coexcellent(jx, k)


def test_colon_to_hom_kernel_formula_on_dual_numbers(qf_ring):
    # The kernel of u |-> (r |-> ru) on (Y :_X I) is (Y :_X I)[I]; the
    # computation re-checks that identity internally, so constructing the
    # map on a torsion-heavy instance exercises it.
    reg = regular_module(qf_ring)
    ix = ideal_from_elements(qf_ring, ["x"])
    domain, matrix = colon_to_hom_by_dense_maps(ix, ix)  # Y = (x) inside X = R
    assert kernel(matrix).dim != 0  # (R :_R (x))[x] = (x) != 0
    assert domain.dim == 2  # (x) : (x) = R since x*m = 0


# -- differential tests: free cover against the dim M * dim N routes ------------------


def _intertwiner_constraints(action_src, action_tgt, dM, dN):
    """Rows of the linear system for F B^M = B^N F, unknowns vec(F)."""
    field = action_src.field
    zero = field.zero
    rows = []
    src = action_src.rows
    tgt = action_tgt.rows
    for a in range(dN):
        ta = tgt[a]
        for c in range(dM):
            row = [zero] * (dN * dM)
            base = a * dM
            for b in range(dM):
                x = src[b][c]
                if x:
                    row[base + b] = row[base + b] + x
            for bp in range(dN):
                y = ta[bp]
                if y:
                    idx = bp * dM + c
                    row[idx] = row[idx] - y
            rows.append(field.canonical(row))
    return rows


def intertwiner_space(source, target):
    """Hom(source, target) as the kernel of the full intertwiner system."""
    field = source.algebra.field
    rows = []
    for a_src, a_tgt in zip(source.actions, target.actions):
        rows.extend(_intertwiner_constraints(a_src, a_tgt, source.dim, target.dim))
    return kernel(Matrix(field, rows, ncols=source.dim * target.dim))


def kron(a, b):
    """Kronecker product, shape (a.nrows * b.nrows) x (a.ncols * b.ncols)."""
    field = a.field
    rows = [field.canonical([x * y for x in arow for y in brow]) for arow in a.rows for brow in b.rows]
    return Matrix(field, rows, ncols=a.ncols * b.ncols)


def kronecker_tensor_dim(left, right):
    """dim of the Kronecker space modulo span{(x u) o v - u o (x v)}."""
    field = left.algebra.field
    eye_m = Matrix.identity(field, left.dim)
    eye_n = Matrix.identity(field, right.dim)
    vecs = []
    for a, b in zip(left.actions, right.actions):
        rows = [[x - y for x, y in zip(r, s)] for r, s in zip(kron(a, eye_n).rows, kron(eye_m, b).rows)]
        vecs.extend(Matrix(field, rows, ncols=left.dim * right.dim).cols())
    return left.dim * right.dim - Subspace.from_vectors(field, left.dim * right.dim, vecs).dim


def differential_pools():
    """(algebra, modules) per catalog algebra: the s1 module pool, two more
    cokernel modules and three ideals as modules, the zero ideal among them."""
    catalog = default_catalog()
    for spec in catalog.algebras:
        algebra = _built(spec)
        modules = [m for m, _ in module_pool(algebra, catalog, "s1")]
        modules.append(module_from_presentation(algebra, [["0"]]))
        if algebra.dim > 1:
            x = algebra.variables[0]
            modules.append(module_from_presentation(algebra, [[x, "0"], [algebra.variables[-1], x]]))
        for gens in ([], list(algebra.variables[:1]), list(algebra.variables)):
            modules.append(ideal_from_elements(algebra, gens).as_module())
        yield algebra, modules


def test_free_cover_is_exact():
    zero_modules = 0
    for algebra, modules in differential_pools():
        field = algebra.field
        for M in modules:
            cover = M.free_cover()
            assert M.free_cover() is cover
            v = len(cover.generators)
            assert v == minimal_generators(M)[0]
            assert cover.matrix.nrows == M.dim and cover.matrix.ncols == v * algebra.dim
            assert cover.matrix @ cover.section == Matrix.identity(field, M.dim)
            for z in cover.syzygies:
                assert len(z) == v
                flat = tuple(x for zi in z for x in zi)
                assert not any(cover.matrix.apply(flat))
            if M.dim == 0:
                assert v == 0 and cover.syzygies == ()
                zero_modules += 1
    assert zero_modules >= 19


def matrix_coords(space, mat):
    """Coordinates of the columns of mat in the canonical basis of space.

    They are the entries at the pivot rows, checked by exact reconstruction.
    This matrix form restricted the actions of N^v to Hom before Hom became
    Submodule.as_module of its values; it is kept as the oracle.
    """
    coords = Matrix._of(mat.field, tuple(mat.rows[p] for p in space.pivots), mat.ncols)
    assert space.basis @ coords == mat
    return coords


def test_hom_actions_match_the_matrix_restriction():
    for algebra, modules in differential_pools():
        for M in modules:
            v = len(M.free_cover().generators)
            for N in modules:
                values = hom_module(M, N)
                expected = [matrix_coords(values, a @ values.basis) for a in power_module(N, v).actions]
                assert list(_hom_in_power(M, N).as_module().actions) == expected


def test_hom_space_equals_intertwiner_kernel():
    fields = set()
    for algebra, modules in differential_pools():
        fields.add(algebra.field.name)
        for M in modules:
            for N in modules:
                assert dense_hom_space(M, N) == intertwiner_space(M, N)
    assert fields == {"F2", "F3", "Q"}


def monomial_operators(module):
    """The action on module of each algebra basis monomial, in basis order."""
    ops = [Matrix.identity(module.algebra.field, module.dim)]
    for var, base in module.algebra.monomial_steps:
        ops.append(module.actions[var] @ ops[base])
    return ops


def annihilator_by_operators(module):
    """Ann(M) as the kernel of all dim R monomial operators on M, entrywise."""
    algebra = module.algebra
    ops = monomial_operators(module)
    rows = [[op.rows[i][j] for op in ops] for i in range(module.dim) for j in range(module.dim)]
    return kernel(Matrix(algebra.field, rows, ncols=algebra.dim))


def dense_multiplication_coords(source, target, ideal, module, vectors, sub=None):
    """Coordinates of r |-> r x, for each x in vectors, in the canonical dense
    basis of Hom(source, target): the dim N x dim I matrix of the map,
    flattened.  The images are read in the coordinates of sub when given."""
    field = module.algebra.field
    space = dense_hom_space(source, target)
    ops = [module.element_action(g) for g in ideal.carrier.rows]
    cols = []
    for x in vectors:
        images = [op.apply(x) for op in ops]
        if sub is not None:
            images = [sub.carrier.coords_of(y) for y in images]
        t = Matrix.from_cols(field, images, nrows=target.dim)
        coords = space.coords_of(tuple(e for row in t.rows for e in row))
        assert coords is not None
        cols.append(coords)
    return Matrix.from_cols(field, cols, nrows=space.dim)


def assert_same_rank_and_kernel(got, dense):
    assert rank(got) == rank(dense)
    assert kernel(got) == kernel(dense)


def differential_ideals(algebra):
    return [ideal_from_elements(algebra, gens) for gens in ([], algebra.variables[:1], algebra.variables)]


def test_trace_from_values_equals_span_of_dense_maps():
    for algebra, modules in differential_pools():
        for ideal in differential_ideals(algebra):
            rep = ideal.as_module()
            for M in modules:
                maps = rep.free_cover().maps(M, hom_module(rep, M).rows)
                cols = [c for f in maps for c in f.cols()]
                assert trace(ideal, M).carrier == Subspace.from_vectors(algebra.field, M.dim, cols)


def test_annihilator_from_generator_orbits_equals_operator_kernel():
    fields = set()
    for algebra, modules in differential_pools():
        fields.add(algebra.field.name)
        for M in modules + [matlis_dual(M).rep for M in modules]:
            assert annihilator(M).carrier == annihilator_by_operators(M)
    assert fields == {"F2", "F3", "Q"}


def test_multiplication_maps_agree_with_the_dense_route():
    for algebra, modules in differential_pools():
        for ideal in differential_ideals(algebra):
            rep = ideal.as_module()
            for M in modules:
                basis = Matrix.identity(algebra.field, M.dim).rows
                image = ideal_times_module(ideal, M)
                hom = hom_module(rep, image.as_module())
                rows = _multiplication_coords(hom, ideal, M, basis, image)
                homothety = Matrix.from_cols(algebra.field, rows, nrows=hom.dim)
                dense = dense_multiplication_coords(rep, image.as_module(), ideal, M, basis, sub=image)
                assert_same_rank_and_kernel(homothety, dense)
                assert is_homothety_onto(ideal, M) == (rank(dense) == dense.nrows)
                hom = hom_module(rep, M)
                rows = _multiplication_coords(hom, ideal, M, basis, M.full_submodule())
                restriction = Matrix.from_cols(algebra.field, rows, nrows=hom.dim)
                assert_same_rank_and_kernel(restriction, dense_multiplication_coords(rep, M, ideal, M, basis))
                for sub in (M.full_submodule(), ideal_times_module(algebra.max_ideal(), M)):
                    domain, dense = colon_to_hom_by_dense_maps(sub, ideal)
                    hom = hom_module(rep, sub.as_module())
                    rows = _multiplication_coords(hom, ideal, M, domain.carrier.rows, sub)
                    assert_same_rank_and_kernel(Matrix.from_cols(algebra.field, rows, nrows=hom.dim), dense)


@pytest.mark.parametrize("field", [GF(2), QQ])
def test_functors_never_row_reduce_the_dense_hom_space(monkeypatch, field):
    # Hom(I, N) is held in N^v coordinates, v = 2 generators of I = (x, y^2),
    # so no elimination may reach dim I * dim N columns.
    R = algebra(field, ["x", "y"], ["x^5", "y^5"])
    reg = regular_module(R)
    ideal = ideal_from_elements(R, ["x", "y^2"])
    rep = ideal.as_module()
    image_rep = ideal_times_module(ideal, reg).as_module()
    widths = []
    row_reduce, from_vectors = tracelab.linalg._row_reduce, Subspace.from_vectors.__func__

    def recording(field, rows, *args, **kwargs):
        # A dense row gives its width; from_vectors, the one caller in linalg
        # that hands over {column: scalar} rows, records its ambient_dim.
        rows = list(rows)
        widths.extend(len(row) for row in rows if type(row) is not dict)
        return row_reduce(field, rows, *args, **kwargs)

    def recording_span(cls, field, ambient_dim, *args, **kwargs):
        widths.append(ambient_dim)
        return from_vectors(cls, field, ambient_dim, *args, **kwargs)

    monkeypatch.setattr(tracelab.linalg, "_row_reduce", recording)
    monkeypatch.setattr(Subspace, "from_vectors", classmethod(recording_span))
    trace(ideal, reg)
    ext1(ideal, reg)
    tor1(reg, ideal)
    is_homothety_onto(ideal, reg)
    is_tensor_eval_injective(reg, ideal)
    assert widths
    assert max(widths) < min(rep.dim * reg.dim, rep.dim * image_rep.dim)


def is_raw_row(field, n, row):
    """Whether a row handed to from_vectors(check=False) is not one the
    scalar check would pass unchanged.  A dense row must be n long; a
    {column: scalar} row needs int keys in range(n) and nonzero values.
    Either way the values must keep their (type, value) under _scalar_rows
    (an integral Fraction over Q or a residue out of range over F_p is raw)."""
    if type(row) is dict:
        values = list(row.values())
        if not all(type(j) is int and j in range(n) for j in row) or not all(values):
            return True
    elif len(values := list(row)) != n:
        return True
    try:
        (canonical,) = _scalar_rows(field, [values])
    except TypeError:
        return True
    return [(type(x), x) for x in values] != [(type(x), x) for x in canonical]


def test_trusted_spans_are_handed_canonical_rows(monkeypatch, capsys):
    # from_vectors(check=False) skips _scalar_rows, so every internal caller
    # must pass dense rows or {column: scalar} rows that it would not change.
    from_vectors = Subspace.from_vectors.__func__
    trusted, raw = [], []

    def checking(cls, field, ambient_dim, vectors, check=True):
        if not check:
            vectors = list(vectors)
            trusted.append(len(vectors))
            if any(is_raw_row(field, ambient_dim, v) for v in vectors):
                raw.append(vectors)
        return from_vectors(cls, field, ambient_dim, vectors, check)

    monkeypatch.setattr(Subspace, "from_vectors", classmethod(checking))
    assert cli_main(["verify", "--suite", "all", "--seed", "20260810"]) == 0
    assert '"passed": true' in capsys.readouterr().out
    # y^3 = x^2/2 in the last ring, so y (2y^2) is an integral Fraction until canonicalised.
    for field, relations, gens in [
        (QQ, ["x^5", "y^5"], ["x", "y^2"]),
        (GF(2), ["x^5", "y^5"], ["x", "y^2"]),
        (QQ, ["x^2 - 2*y^3", "x^3"], ["x", "2*y^2"]),
    ]:
        R = algebra(field, ["x", "y"], relations)
        ideal = ideal_from_elements(R, gens)
        trace(ideal, regular_module(R))
        ext1(ideal, regular_module(R))
    assert trusted and not raw, raw[:1]


@pytest.mark.parametrize(
    "field, row",
    [
        (GF(2), (1, 0)),
        (GF(2), {0: 1, 3: 1}),
        (GF(2), {0: 0}),
        (GF(2), {True: 1}),
        (GF(2), {0: 3}),
        (GF(2), (1, 0, 3)),
        (QQ, {1: Fraction(2, 1)}),
        (QQ, {1: 0.5}),
    ],
    ids=["short", "key-out-of-range", "zero-value", "bool-key", "residue", "dense-residue", "integral-fraction", "float"],
)
def test_raw_trusted_rows_are_flagged(field, row):
    assert is_raw_row(field, 3, row)
    assert not is_raw_row(field, 3, (1, 0, 1)) and not is_raw_row(field, 3, {0: 1, 2: 1})


def test_tensor_dim_equals_kronecker_quotient():
    for algebra, modules in differential_pools():
        for M in modules:
            for N in modules:
                assert tensor_product(M, N).dim == kronecker_tensor_dim(M, N)


def test_zero_module_and_zero_ideal_edge_cases(fat_point_f2, qf_ring):
    for R in (fat_point_f2, qf_ring):
        reg = regular_module(R)
        zero = module_from_presentation(R, [["1"]])
        zero_ideal = ideal_from_elements(R, [])
        zero_ideal_rep = zero_ideal.as_module()
        for M in (zero, zero_ideal_rep):
            assert M.dim == 0
            assert hom_module(M, reg).dim == 0 and hom_module(reg, M).dim == 0
            assert tensor_product(M, reg).dim == 0 and tensor_product(reg, M).dim == 0
        assert tor1(reg, zero_ideal).dim == 0
        assert tor1(zero, R.max_ideal()).dim == 0
        assert ext1(zero_ideal, reg).dim == 0
        assert ext1(R.max_ideal(), zero).dim == 0
        for M, I in ((zero, R.max_ideal()), (reg, zero_ideal)):
            assert is_tensor_eval_injective(M, I)
        assert trace(zero_ideal, reg).dim == 0 and cotrace(zero_ideal, zero).dim == 0
