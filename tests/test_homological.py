"""Trace, cotrace, duality, Ext1/Tor1: frozen examples and brute-force oracles.

The brute-force oracles enumerate *all* linear maps over F_2 and filter the
module homomorphisms by definition, fully independent of the free-cover
solver they check.  The differential tests compare Hom and tensor products
against the dim M * dim N intertwiner system and Kronecker quotient.
"""

import itertools

import pytest

from tracelab.artin import (
    PolynomialPresentation,
    build_algebra,
    free_module,
    ideal_from_elements,
    ideal_times_module,
    minimal_generators,
    module_from_presentation,
    regular_module,
    socle,
    torsion_submodule,
)
from tracelab.errors import ExtNotVanishing, FieldNotFinite
from tracelab.homological import (
    ann_in_dual,
    coexcellence_verdict,
    colon_to_hom,
    cotrace,
    embed_into_injective,
    excellence_verdict,
    ext1,
    has_commutative_endomorphisms,
    hom_module,
    homothety_map,
    is_cyclic_ideal,
    is_good_ideal,
    is_ideal_coexcellent,
    is_ideal_excellent,
    is_quasi_frobenius,
    matlis_dual,
    tensor_eval,
    tensor_product,
    tor1,
    trace,
    trace_via_colon,
)
from tracelab.linalg import GF, QQ, Matrix, Subspace, kernel, kron
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
    rep, _ = ideal.as_module()
    vecs = []
    for f in enumerate_module_maps(rep, module):
        vecs.extend(f.col(j) for j in range(f.ncols))
    return Subspace.from_vectors(module.algebra.field, module.dim, vecs)


def brute_force_cotrace(ideal, module):
    rep, _ = ideal.as_module()
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
    rep, _ = ix.as_module()
    assert hom_module(rep, R).dim == 2


def test_hom_into_zero_module(qf_ring):
    zero = module_from_presentation(qf_ring, [["1"]])
    assert hom_module(regular_module(qf_ring), zero).dim == 0


def test_hom_dimension_matches_brute_force(fat_point_f2, qf_ring_f2):
    cases = []
    R = regular_module(fat_point_f2)
    ix = ideal_from_elements(fat_point_f2, ["x"]).as_module()[0]
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
    hom = hom_module(S, S)
    assert hom.rep.dim == 2
    # x acts nilpotently on End(R) for R = k[x]/(x^2)
    act = hom.rep.actions[0]
    assert (act @ act).is_zero()


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
    assert homothety_map(ix, reg).surjective


def test_homothety_for_unit_and_zero_ideal(fat_point):
    reg = regular_module(fat_point)
    assert homothety_map(ideal_from_elements(fat_point, ["1"]), reg).surjective
    zero_map = homothety_map(ideal_from_elements(fat_point, []), reg)
    assert zero_map.surjective and zero_map.hom.dim == 0


def test_colon_to_hom_surjective_into_injective(fat_point):
    # X = dual of R is injective, so the map onto Hom(I, Y) is onto.
    reg = regular_module(fat_point)
    X = matlis_dual(reg).rep
    ix = ideal_from_elements(fat_point, ["x"])
    alpha = colon_to_hom(X.full_submodule(), ix)
    assert alpha.surjective


def test_colon_to_hom_unit_ideal_is_identity_like(fat_point):
    reg = regular_module(fat_point)
    y = ideal_from_elements(fat_point, ["x"])  # Y = the line (x)
    y_sub = y  # submodule of R
    full = ideal_from_elements(fat_point, ["1"])
    alpha = colon_to_hom(y_sub, full)
    assert alpha.injective and alpha.surjective
    assert alpha.domain.carrier == y.carrier


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
    assert tensor_eval(reg, ix).injective


def test_tensor_eval_unit_and_zero(fat_point):
    reg = regular_module(fat_point)
    assert tensor_eval(reg, ideal_from_elements(fat_point, ["1"])).injective
    beta = tensor_eval(reg, ideal_from_elements(fat_point, []))
    assert beta.injective and beta.tensor.dim == 0


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
            _S.from_vectors(R.field, X.dim, [incl.col(j) for j in range(incl.ncols)]),
            check=False,
        )
        routed = trace_via_colon(member, ideal)
        direct = trace(ideal, M)
        mapped = _S.from_vectors(
            R.field, X.dim, [incl.apply(c) for c in direct.carrier.basis_columns()]
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
    alpha = colon_to_hom(ix, ix)  # Y = (x) inside X = R
    assert not alpha.injective  # (R :_R (x))[x] = (x) != 0
    assert alpha.domain.dim == 2  # (x) : (x) = R since x*m = 0


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


def kronecker_tensor_dim(left, right):
    """dim of the Kronecker space modulo span{(x u) o v - u o (x v)}."""
    field = left.algebra.field
    eye_m = Matrix.identity(field, left.dim)
    eye_n = Matrix.identity(field, right.dim)
    vecs = []
    for a, b in zip(left.actions, right.actions):
        vecs.extend((kron(a, eye_n) - kron(eye_m, b)).cols())
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
            modules.append(ideal_from_elements(algebra, gens).as_module()[0])
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


def test_hom_space_equals_intertwiner_kernel():
    fields = set()
    for algebra, modules in differential_pools():
        fields.add(algebra.field.name)
        for M in modules:
            for N in modules:
                assert hom_module(M, N).space == intertwiner_space(M, N)
    assert fields == {"F2", "F3", "Q"}


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
        zero_ideal_rep = zero_ideal.as_module()[0]
        for M in (zero, zero_ideal_rep):
            assert M.dim == 0
            assert hom_module(M, reg).dim == 0 and hom_module(reg, M).dim == 0
            assert tensor_product(M, reg).dim == 0 and tensor_product(reg, M).dim == 0
        assert tor1(reg, zero_ideal).dim == 0
        assert tor1(zero, R.max_ideal()).dim == 0
        assert ext1(zero_ideal, reg).dim == 0
        assert ext1(R.max_ideal(), zero).dim == 0
        assert tensor_eval(zero, R.max_ideal()).injective
        assert trace(zero_ideal, reg).dim == 0 and cotrace(zero_ideal, zero).dim == 0
