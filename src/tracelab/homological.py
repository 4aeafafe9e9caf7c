"""Hom modules, trace and cotrace submodules, Ext1/Tor1, Matlis duality.

The two central objects, for an ideal I of an Artinian local algebra R and a
finitely generated R-module M, are

    trace(I, M)   = sum of the images of all homomorphisms I -> M
                    (the largest I-generated submodule; IM <= trace <= M[Ann I]),
    cotrace(I, M) = intersection of the kernels of all maps M -> dual(I)
                    (Ann(I)M <= cotrace <= M[I]).

Both are computed literally from their definitions through Hom, and every
call re-checks its sandwich inclusions exactly; higher-level identities
(duality exchange, colon route, Ext/Tor criteria) are verified by the test
suite and the verifier against these definitional routes.

Hom and tensor products start from a free presentation R^v -> M of the
source (ModuleRep.free_cover, after Lux and Szoke, "Computing homomorphism
spaces between modules over finite dimensional algebras", Experimental
Math. 12, 2003).  A map M -> N is its tuple of values on the v generators,
constrained by the syzygies, so Hom(M, N) is solved for with v * dim N
unknowns; M tensor N is N^v modulo the syzygies acting on N.  Neither works
in a space of size dim M * dim N.

Matlis duality is plain transposition: for an Artinian local k-algebra with
residue field k the k-linear dual of R is the injective hull of k, so
dualizing a module means transposing its action matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .artin import (
    ModuleRep,
    Submodule,
    _require_ideal,
    annihilator,
    enumerate_cyclic_ideals,
    free_module,
    ideal_from_elements,
    ideal_times_module,
    ideal_times_subspace,
    minimal_generators,
    power_module,
    socle,
    span_submodule,
    torsion_submodule,
)
from .artin import colon as colon_submodule
from .errors import (
    AlgebraMismatch,
    ExtNotVanishing,
    FieldNotFinite,
    InternalCheckError,
)
from .linalg import Matrix, Subspace, hstack, kernel, rank, vstack


def _require_same_algebra(ideal, module):
    _require_ideal(ideal, module.algebra)
    if ideal.module.algebra is not module.algebra:
        raise AlgebraMismatch("ideal and module live over different algebras")


# -- Hom ------------------------------------------------------------------------


class HomModule:
    """A basis of Hom_R(M, N) as intertwiner matrices, with its R-structure.

    A map f: M -> N is fixed by its values n_i = f(g_i) on the generators of
    a free cover R^v -> M, and (n_1..n_v) in N^v gives a map exactly when
    sum_i z_i n_i = 0 for every syzygy z; so the solution space has v * dim N
    unknowns.  Each solution becomes its N.dim x M.dim matrix F, which
    satisfies F B_i^M = B_i^N F for every generator action; x_i acts on F as
    B_i^N F, which makes Hom an R-module again (rep).  The basis is canonical
    (reduced echelon in the vectorized coordinates of F), so coordinates of a
    given intertwiner are read off at pivot positions.
    """

    __slots__ = ("source", "target", "basis", "space", "rep")

    def __init__(self, source, target, basis, space, rep):
        self.source = source
        self.target = target
        self.basis = basis
        self.space = space
        self.rep = rep

    @property
    def dim(self):
        return len(self.basis)

    def coords_of_map(self, mat):
        """Coordinates of an intertwiner in the canonical hom basis."""
        flat = tuple(x for row in mat.rows for x in row)
        coords = self.space.coords_of(flat)
        if coords is None:
            raise InternalCheckError("matrix is not in the intertwiner space")
        return coords

    def __repr__(self):
        return "HomModule(dim %d: %r -> %r)" % (self.dim, self.source, self.target)


def _syzygy_actions(cover, module):
    """For each syzygy z of the cover, the actions [z_1, ..., z_v] on module."""
    return [[module.element_action(zi) for zi in z] for z in cover.syzygies]


@lru_cache(maxsize=None)
def hom_module(source, target):
    """Hom_R(source, target) as a HomModule."""
    if source.algebra is not target.algebra:
        raise AlgebraMismatch("hom between modules over different algebras")
    algebra = source.algebra
    field = algebra.field
    cover = source.free_cover()
    v, dM, dN = len(cover.generators), source.dim, target.dim
    rows = []
    for blocks in _syzygy_actions(cover, target):
        rows.extend(hstack(blocks).rows)
    values = kernel(Matrix(field, rows, ncols=v * dN))
    # f(m) = sum_i r_i n_i for m = sum_i r_i g_i, so each solution n gives
    # F = C @ S with column (i, s) of C the vector b_s n_i.  The C of all
    # solutions are stacked to share one product.
    stacked = []
    for n in values.basis_columns():
        cols = [w for i in range(v) for w in target.orbit(n[i * dN : (i + 1) * dN])]
        stacked.extend(zip(*cols))
    images = Matrix(field, stacked, ncols=cover.section.nrows) @ cover.section
    vecs = [
        tuple(x for row in images.rows[t * dN : (t + 1) * dN] for x in row)
        for t in range(values.dim)
    ]
    space = Subspace.from_vectors(field, dN * dM, vecs)
    basis = []
    for col in space.basis_columns():
        rows = [col[a * dM : (a + 1) * dM] for a in range(dN)]
        basis.append(Matrix(field, rows, ncols=dM))
    basis = tuple(basis)
    actions = []
    for a_tgt in target.actions:
        cols = []
        for f in basis:
            g = a_tgt @ f
            flat = tuple(x for row in g.rows for x in row)
            coords = space.coords_of(flat)
            if coords is None:
                raise InternalCheckError("hom space is not closed under the action")
            cols.append(coords)
        actions.append(Matrix.from_cols(field, cols, nrows=len(basis)))
    rep = ModuleRep(algebra, len(basis), actions, label="Hom(%s,%s)" % (source.label, target.label))
    return HomModule(source, target, basis, space, rep)


# -- trace and cotrace -----------------------------------------------------------


@lru_cache(maxsize=None)
def trace(ideal, module):
    """The trace of I in M: the sum of the images of all maps I -> M.

    The sandwich IM <= trace <= M[Ann I] is re-checked on every call.
    """
    _require_same_algebra(ideal, module)
    field = module.algebra.field
    ideal_rep, _ = ideal.as_module()
    hom = hom_module(ideal_rep, module)
    vecs = []
    for f in hom.basis:
        vecs.extend(f.col(j) for j in range(f.ncols))
    result = Submodule(module, Subspace.from_vectors(field, module.dim, vecs), check=False)
    lower = ideal_times_module(ideal, module)
    upper = torsion_submodule(module, annihilator(ideal_rep))
    if not result.carrier.contains(lower.carrier) or not upper.carrier.contains(result.carrier):
        raise InternalCheckError("trace sandwich IM <= trace <= M[Ann I] failed")
    return result


@lru_cache(maxsize=None)
def cotrace(ideal, module):
    """The cotrace of I in M: the joint kernel of all maps M -> dual(I).

    The sandwich Ann(I)M <= cotrace <= M[I] is re-checked on every call.
    """
    _require_same_algebra(ideal, module)
    ideal_rep, _ = ideal.as_module()
    dual_ideal = matlis_dual(ideal_rep).rep
    hom = hom_module(module, dual_ideal)
    if hom.dim == 0:
        result = module.full_submodule()
    else:
        result = Submodule(module, kernel(vstack(hom.basis)), check=False)
    lower = ideal_times_module(annihilator(ideal_rep), module)
    upper = torsion_submodule(module, ideal)
    if not result.carrier.contains(lower.carrier) or not upper.carrier.contains(result.carrier):
        raise InternalCheckError("cotrace sandwich Ann(I)M <= cotrace <= M[I] failed")
    return result


# -- Matlis duality ---------------------------------------------------------------


class DualModule:
    """The k-linear dual with transposed actions, paired with its primal."""

    __slots__ = ("rep", "primal")

    def __init__(self, rep, primal):
        self.rep = rep
        self.primal = primal

    def __repr__(self):
        return "DualModule(of %r)" % (self.primal,)


@lru_cache(maxsize=None)
def matlis_dual(module):
    """Matlis dual of M, realized as the coordinate dual with transposed
    actions.  Dualizing twice restores the original action matrices."""
    rep = ModuleRep(
        module.algebra,
        module.dim,
        [a.transpose() for a in module.actions],
        label=module.label + "*",
    )
    return DualModule(rep, module)


def ann_in_dual(dual, sub):
    """Ann_{dual}(U) = {f : f(U) = 0}, a submodule of the dual of M.

    Its dimension is dim M - dim U, which is asserted.
    """
    if sub.module is not dual.primal:
        raise AlgebraMismatch("submodule does not live in the primal of this dual")
    field = dual.rep.algebra.field
    if sub.dim == 0:
        result = dual.rep.full_submodule()
    else:
        result = Submodule(dual.rep, kernel(sub.carrier.basis.transpose()), check=False)
    if result.dim != dual.primal.dim - sub.dim:
        raise InternalCheckError("annihilator in dual has wrong dimension")
    return result


# -- canonical maps ----------------------------------------------------------------


@dataclass(frozen=True)
class HomothetyMap:
    """The canonical map M -> Hom(I, IM), x |-> (r |-> r x)."""

    matrix: Matrix
    surjective: bool
    hom: HomModule
    image: Submodule


def homothety_map(ideal, module):
    """Matrix of x |-> (r |-> r x) from M to Hom(I, IM), with onto flag."""
    _require_same_algebra(ideal, module)
    field = module.algebra.field
    image = ideal_times_module(ideal, module)
    image_rep, _ = image.as_module()
    ideal_rep, _ = ideal.as_module()
    hom = hom_module(ideal_rep, image_rep)
    gens = ideal.carrier.basis_columns()
    ops = [module.element_action(g) for g in gens]
    cols = []
    for b in range(module.dim):
        e_b = [field.zero] * module.dim
        e_b[b] = field.one
        tcols = []
        for op in ops:
            v = op.apply(e_b)
            coords = image.carrier.coords_of(v)
            if coords is None:
                raise InternalCheckError("I*x escaped IM")
            tcols.append(coords)
        t = Matrix.from_cols(field, tcols, nrows=image.dim)
        cols.append(hom.coords_of_map(t))
    matrix = Matrix.from_cols(field, cols, nrows=hom.dim)
    return HomothetyMap(matrix, rank(matrix) == hom.dim, hom, image)


@dataclass(frozen=True)
class ColonHomMap:
    """The map (Y :_X I) -> Hom(I, Y), u |-> (r |-> r u)."""

    matrix: Matrix
    injective: bool
    surjective: bool
    domain: Submodule
    hom: HomModule


def colon_to_hom(sub, ideal):
    """Matrix of u |-> (r |-> r u) on (Y :_X I), with injectivity and
    surjectivity flags.  Its kernel equals (Y :_X I)[I]; asserted."""
    ambient = sub.module
    _require_same_algebra(ideal, ambient)
    field = ambient.algebra.field
    domain = colon_submodule(sub, ideal)
    sub_rep, _ = sub.as_module()
    ideal_rep, _ = ideal.as_module()
    hom = hom_module(ideal_rep, sub_rep)
    gens = ideal.carrier.basis_columns()
    ops = [ambient.element_action(g) for g in gens]
    cols = []
    for u in domain.carrier.basis_columns():
        tcols = []
        for op in ops:
            v = op.apply(u)
            coords = sub.carrier.coords_of(v)
            if coords is None:
                raise InternalCheckError("I*(Y :_X I) escaped Y")
            tcols.append(coords)
        t = Matrix.from_cols(field, tcols, nrows=sub.dim)
        cols.append(hom.coords_of_map(t))
    matrix = Matrix.from_cols(field, cols, nrows=hom.dim)
    ker = kernel(matrix)
    lifted = Subspace.from_vectors(
        field, ambient.dim, [domain.carrier.basis.apply(c) for c in ker.basis_columns()]
    )
    expected = domain.carrier.intersect(torsion_submodule(ambient, ideal).carrier)
    if lifted != expected:
        raise InternalCheckError("kernel of the colon-to-hom map is not (Y :_X I)[I]")
    return ColonHomMap(matrix, ker.dim == 0, rank(matrix) == hom.dim, domain, hom)


# -- tensor products ----------------------------------------------------------------


@dataclass(frozen=True)
class TensorProduct:
    """M tensor_R N as a quotient of N^v, v the generator count of M.

    With M = R^v / K, M tensor N = N^v / (K tensor N): the relations are
    spanned by (z_1 n, ..., z_v n) over the syzygies z of M's free cover and
    the basis vectors n of N.  rep, proj, section and relations all use the
    N^v coordinates, block i holding the coefficient of the generator g_i.
    """

    rep: ModuleRep
    proj: Matrix
    section: Matrix
    relations: Submodule

    @property
    def dim(self):
        return self.rep.dim


@lru_cache(maxsize=None)
def tensor_product(left, right):
    """M tensor_R N: N^v modulo the syzygy relations of M's free cover."""
    if left.algebra is not right.algebra:
        raise AlgebraMismatch("tensor product over different algebras")
    field = left.algebra.field
    cover = left.free_cover()
    ambient = power_module(right, len(cover.generators))
    vecs = []
    for blocks in _syzygy_actions(cover, right):
        vecs.extend(vstack(blocks).cols())
    relations = Submodule(ambient, Subspace.from_vectors(field, ambient.dim, vecs), check=False)
    rep, proj, section = relations.quotient()
    rep.label = "%s(x)%s" % (left.label, right.label)
    return TensorProduct(rep, proj, section, relations)


def _evaluation(module, ideal, generators):
    """Matrix of (n_1..n_v) |-> sum_i n_i g_i from I^v into M.

    The g_i are the left factor's cover generators as vectors of M, and I^v
    is in TensorProduct coordinates.  Kills the tensor relations exactly;
    checked by the callers.
    """
    field = module.algebra.field
    ops = [module.element_action(r) for r in ideal.carrier.basis_columns()]
    cols = [op.apply(g) for g in generators for op in ops]
    return Matrix.from_cols(field, cols, nrows=module.dim)


@dataclass(frozen=True)
class TensorEvalMap:
    """The canonical map (M/M[I]) tensor_R I -> M, x o r |-> r x."""

    matrix: Matrix
    injective: bool
    tensor: TensorProduct
    quotient_rep: ModuleRep


def tensor_eval(module, ideal):
    """Matrix of (M/M[I]) tensor_R I -> M with injectivity flag."""
    _require_same_algebra(ideal, module)
    torsion = torsion_submodule(module, ideal)
    quotient_rep, _, section = torsion.quotient()
    ideal_rep, _ = ideal.as_module()
    tp = tensor_product(quotient_rep, ideal_rep)
    lifts = [section.apply(g) for g in quotient_rep.free_cover().generators]
    full = _evaluation(module, ideal, lifts)
    if not (full @ tp.relations.carrier.basis).is_zero():
        raise InternalCheckError("tensor evaluation does not kill the tensor relations")
    matrix = full @ tp.section
    return TensorEvalMap(matrix, rank(matrix) == tp.rep.dim, tp, quotient_rep)


# -- Ext1 and Tor1 -----------------------------------------------------------------


@dataclass(frozen=True)
class DerivedFunctor:
    """Ext1(R/I, M) or Tor1(M, R/I) as an explicit module."""

    rep: ModuleRep

    @property
    def dim(self):
        return self.rep.dim


@lru_cache(maxsize=None)
def ext1(ideal, module):
    """Ext1(R/I, M) as the cokernel of Hom(R, M) -> Hom(I, M).

    For cyclic I the dimension is checked against dim M[Ann I] - dim IM.
    """
    _require_same_algebra(ideal, module)
    field = module.algebra.field
    ideal_rep, _ = ideal.as_module()
    hom = hom_module(ideal_rep, module)
    gens = ideal.carrier.basis_columns()
    ops = [module.element_action(g) for g in gens]
    cols = []
    for b in range(module.dim):
        e_b = [field.zero] * module.dim
        e_b[b] = field.one
        t = Matrix.from_cols(field, [op.apply(e_b) for op in ops], nrows=module.dim)
        cols.append(hom.coords_of_map(t))
    restriction = Matrix.from_cols(field, cols, nrows=hom.dim)
    image = Submodule(
        hom.rep,
        Subspace.from_vectors(field, hom.dim, restriction.cols()),
        check=False,
    )
    rep, _, _ = image.quotient()
    rep.label = "Ext1"
    result = DerivedFunctor(rep)
    if is_cyclic_ideal(ideal):
        upper = torsion_submodule(module, annihilator(ideal_rep))
        lower = ideal_times_module(ideal, module)
        if result.dim != upper.dim - lower.dim:
            raise InternalCheckError("cyclic Ext1 dimension disagrees with M[Ann I]/IM")
    return result


@lru_cache(maxsize=None)
def tor1(module, ideal):
    """Tor1(M, R/I) as the kernel of M tensor_R I -> M.

    For cyclic I the dimension is checked against dim M[I] - dim Ann(I)M.
    """
    _require_same_algebra(ideal, module)
    ideal_rep, _ = ideal.as_module()
    tp = tensor_product(module, ideal_rep)
    full = _evaluation(module, ideal, module.free_cover().generators)
    if not (full @ tp.relations.carrier.basis).is_zero():
        raise InternalCheckError("tensor evaluation does not kill the tensor relations")
    evaluation = full @ tp.section
    ker = Submodule(tp.rep, kernel(evaluation), check=False)
    rep, _ = ker.as_module()
    rep.label = "Tor1"
    result = DerivedFunctor(rep)
    if is_cyclic_ideal(ideal):
        upper = torsion_submodule(module, ideal)
        lower = ideal_times_module(annihilator(ideal_rep), module)
        if result.dim != upper.dim - lower.dim:
            raise InternalCheckError("cyclic Tor1 dimension disagrees with M[I]/Ann(I)M")
    return result


def is_cyclic_ideal(ideal):
    """Whether the ideal is generated by one element (v(I) <= 1)."""
    if ideal.dim == 0:
        return True
    rep, _ = ideal.as_module()
    return minimal_generators(rep)[0] <= 1


# -- injective embeddings and the colon route ----------------------------------------


@lru_cache(maxsize=None)
def embed_into_injective(module):
    """(X, inclusion): X = dual(R^n) with n = v(dual M), M embedded by
    dualizing a minimal free cover of the dual.

    X is injective (a finite sum of copies of the dual of R); the inclusion
    is checked to be injective and intertwining, and Ext1(R/m, X) = 0 is
    checked as an injectivity sample.
    """
    algebra = module.algebra
    dual = matlis_dual(module).rep
    cover = dual.free_cover()
    n = len(cover.generators)
    injective_rep = matlis_dual(free_module(algebra, n)).rep
    injective_rep.label = "E^%d" % n
    inclusion = cover.matrix.transpose()
    if rank(inclusion) != module.dim:
        raise InternalCheckError("dualized free cover is not injective on M")
    for bm, bx in zip(module.actions, injective_rep.actions):
        if inclusion @ bm != bx @ inclusion:
            raise InternalCheckError("inclusion into the injective is not a module map")
    if module.dim and ext1(algebra.max_ideal(), injective_rep).dim != 0:
        raise InternalCheckError("constructed module is not injective: Ext1(R/m, X) != 0")
    return injective_rep, inclusion


def trace_via_colon(member, ideal):
    """The trace of I in M computed as I(M :_X I) inside an extension X
    with Ext1(R/I, X) = 0.

    `member` is M as a submodule of X.  The result is cross-checked against
    the definitional trace computed on M alone.
    """
    ambient = member.module
    _require_same_algebra(ideal, ambient)
    field = ambient.algebra.field
    if ext1(ideal, ambient).dim != 0:
        raise ExtNotVanishing("Ext1(R/I, X) != 0: the colon route does not apply")
    inside = colon_submodule(member, ideal)
    result = Submodule(ambient, ideal_times_subspace(ideal, ambient, inside.carrier), check=False)
    member_rep, incl = member.as_module()
    definitional = trace(ideal, member_rep)
    mapped = Subspace.from_vectors(
        field, ambient.dim, [incl.apply(c) for c in definitional.carrier.basis_columns()]
    )
    if mapped != result.carrier:
        raise InternalCheckError("colon route disagrees with the definitional trace")
    return result


# -- predicates ---------------------------------------------------------------------


def is_ideal_excellent(ideal, module):
    """Whether IM equals the trace of I in M."""
    return trace(ideal, module).carrier == ideal_times_module(ideal, module).carrier


def is_ideal_coexcellent(ideal, module):
    """Whether the cotrace of I in M equals the torsion M[I]."""
    return cotrace(ideal, module).carrier == torsion_submodule(module, ideal).carrier


def is_good_ideal(ideal):
    """Whether I equals its own trace in R (a trace ideal)."""
    return trace(ideal, ideal.module).carrier == ideal.carrier


def is_quasi_frobenius(algebra):
    """Whether R is Quasi-Frobenius, i.e. has a simple socle."""
    return socle(algebra.regular_module()).dim == 1


def has_commutative_endomorphisms(ideal):
    """Whether End_R(I) is commutative."""
    rep, _ = ideal.as_module()
    hom = hom_module(rep, rep)
    basis = hom.basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if basis[i] @ basis[j] != basis[j] @ basis[i]:
                return False
    return True


@dataclass(frozen=True)
class PredicateVerdict:
    """Outcome of an all-ideals predicate along with its evidence level.

    evidence is "exhaustive" (all cyclic ideals of a finite ring were
    tested, which suffices because excellence is closed under ideal sums)
    or "sampled" (a supplied or seeded list of ideals was tested).
    """

    holds: bool
    evidence: str
    tested: int
    witness: Submodule | None = None

    def __bool__(self):
        return self.holds


def random_element(algebra, rng, in_max_ideal=True):
    """A reproducible random ring element (coordinates over the basis)."""
    field = algebra.field
    coords = []
    for i in range(algebra.dim):
        if in_max_ideal and i == 0:
            coords.append(field.zero)
        elif field.is_finite:
            coords.append(field.from_int(rng.randrange(field.order)))
        else:
            coords.append(field.from_int(rng.randint(-2, 2)))
    return tuple(coords)


def sampled_ideals(algebra, seed, count=24):
    """Deterministic ideal sample: 0, m, R, and seeded random cyclics."""
    rng = random.Random(seed)
    reg = algebra.regular_module()
    ideals = [
        ideal_from_elements(algebra, []),
        algebra.max_ideal(),
        ideal_from_elements(algebra, ["1"]),
    ]
    for _ in range(count):
        ideals.append(span_submodule(reg, [random_element(algebra, rng)]))
    return ideals


def _all_ideals_verdict(module, predicate, ideals, seed, samples, cap=None):
    algebra = module.algebra
    if ideals is not None:
        evidence = "sampled"
        pool = list(ideals)
    elif algebra.field.is_finite:
        evidence = "exhaustive"
        pool = enumerate_cyclic_ideals(algebra) if cap is None else enumerate_cyclic_ideals(algebra, cap)
    elif seed is not None:
        evidence = "sampled"
        pool = sampled_ideals(algebra, seed, samples)
    else:
        raise FieldNotFinite(
            "exhaustive testing needs a finite field; pass ideals=... or seed=..."
        )
    for ideal in pool:
        if not predicate(ideal, module):
            return PredicateVerdict(False, evidence, len(pool), ideal)
    return PredicateVerdict(True, evidence, len(pool), None)


def excellence_verdict(module, ideals=None, seed=None, samples=24, cap=None):
    """Whether M is excellent (IM = trace for every ideal I).

    Over a finite field all cyclic ideals are tested, which is exhaustive
    because a module excellent for a family of ideals is excellent for
    their sum.  Over Q the result is a sampled verdict.
    """
    return _all_ideals_verdict(module, is_ideal_excellent, ideals, seed, samples, cap)


def coexcellence_verdict(module, ideals=None, seed=None, samples=24, cap=None):
    """Whether M is coexcellent (cotrace = M[I] for every ideal I)."""
    return _all_ideals_verdict(module, is_ideal_coexcellent, ideals, seed, samples, cap)
