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
constrained by the syzygies, and Hom(M, N) is kept in those generator
coordinates, a subspace of N^v: the trace is the span of the values, and
Ext1 and the maps x |-> (r |-> r x) read their coordinates from the values
g_i x.  Syzygies and Hom find their generators in R^v and N^v, and Hom's own
rep is built only for Ext1.  M tensor N is N^v modulo the syzygies acting on
N.  Dense dim N x dim M matrices of maps are built in one place,
FreeCover.maps, from their values on the generators, and only where the maps
themselves are needed: the cotrace's joint kernel, commutativity of
endomorphisms, and ModuleRep.element_action, multiplication by r being the
map with values r g_i.  Only HomModule.dense_space, for the verifier's
deliberately broken trace, works in a space of size dim M * dim N.

Matlis duality is plain transposition: for an Artinian local k-algebra with
residue field k the k-linear dual of R is the injective hull of k, so
dualizing a module means transposing its action matrices.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .artin import (
    ModuleRep,
    Submodule,
    _joint_kernel,
    _memoised,
    _require_ideal,
    annihilator,
    enumerate_cyclic_ideals,
    free_module,
    ideal_from_elements,
    ideal_times_module,
    ideal_times_submodule,
    power_module,
    regular_module,
    socle,
    span_submodule,
    submodule_generators,
    torsion_submodule,
)
from .artin import colon as colon_submodule
from .errors import (
    AlgebraMismatch,
    ExtNotVanishing,
    FieldNotFinite,
    InternalCheckError,
)
from .linalg import Matrix, Subspace, _dense, hstack, kernel, rank, vstack

SAMPLED_IDEALS = 24  # seeded random cyclic ideals in a sampled verdict, besides 0, m and R


# -- Hom ------------------------------------------------------------------------


class HomModule:
    """Hom_R(M, N) in generator coordinates, with its R-structure.

    A map f: M -> N is fixed by its values n_i = f(g_i) on the generators
    g_1..g_v of the source's free cover, `cover`, and (n_1..n_v) in N^v
    gives a map exactly when sum_i z_i n_i = 0 for every syzygy z.  `values`
    is that solution space, a canonical subspace of N^v with block i holding
    n_i, so Hom is solved for and held with v * dim N coordinates.  x_j acts
    on f through its values, (x_j f)(g_i) = x_j n_i, so `values` is a
    submodule of N^v; the coordinates of a map are those of its values in
    `values`.

    All else is built on demand: rep (for Ext1) on first access, generator
    maps from generators read in N^v, and the dense dim N x dim M matrices
    in maps() and dense_space() (the intertwiner space).
    """

    __slots__ = ("cover", "target", "values", "_memo")

    def __init__(self, cover, target, values):
        self.cover = cover
        self.target = target
        self.values = values

    @property
    def dim(self):
        return self.values.dim

    def maps(self, tuples):
        """The dim N x dim M matrix of the map with each given value tuple."""
        return self.cover.maps(self.target, tuples)

    def _in_power(self):  # `values` as a submodule of N^v
        return Submodule(power_module(self.target, len(self.cover.generators)), self.values, check=False)

    @property
    @_memoised("self")
    def rep(self):
        """Hom as an R-module, in the coordinates of `values`."""
        return self._in_power().as_module()

    def generator_maps(self):
        """The maps of minimal generators of Hom as an R-module.

        A map f = sum_j r_j f_j kills m, or commutes with maps, when the f_j
        do, so these suffice for joint kernels and for commutativity.
        """
        return self.maps(submodule_generators(self._in_power()))

    def dense_space(self):
        """The maps of the basis, flattened row-major, as the canonical
        subspace of k^(dim N * dim M): the intertwiner space."""
        maps = self.maps(self.values.rows)
        vecs = [tuple(x for row in f.rows for x in row) for f in maps]
        field = self.target.algebra.field
        return Subspace.from_vectors(field, self.target.dim * self.cover.matrix.nrows, vecs, check=False)

    def __repr__(self):
        return "HomModule(dim %d into %r)" % (self.dim, self.target)


def _syzygy_actions(cover, module):
    """For each syzygy z of the cover, the actions [z_1, ..., z_v] on module."""
    return [[module.element_action(zi) for zi in z] for z in cover.syzygies]


@_memoised("source")
def hom_module(source, target):
    """Hom_R(source, target) as a HomModule."""
    if source.algebra is not target.algebra:
        raise AlgebraMismatch("hom between modules over different algebras")
    field = source.algebra.field
    cover = source.free_cover()
    v, dN = len(cover.generators), target.dim
    rows = []
    for blocks in _syzygy_actions(cover, target):
        rows.extend(hstack(blocks).rows)
    return HomModule(cover, target, kernel(Matrix._of(field, tuple(rows), v * dN)))


# -- trace and cotrace -----------------------------------------------------------


@_memoised("module")
def trace(ideal, module):
    """The trace of I in M: the sum of the images of all maps I -> M.

    It is the k-span of the values n_i over a basis of Hom(I, M): Hom is an
    R-module and (r f)(g_i) = r n_i, so every f(sum_i r_i g_i) lies in it.
    The sandwich IM <= trace <= M[Ann I] is re-checked on every call.
    """
    _require_ideal(ideal, module.algebra)
    field = module.algebra.field
    ideal_rep = ideal.as_module()
    hom = hom_module(ideal_rep, module)
    d = module.dim
    vecs = [n[i : i + d] for n in hom.values.rows for i in range(0, len(n), d)]
    result = Submodule(module, Subspace.from_vectors(field, d, vecs, check=False), check=False)
    lower = ideal_times_module(ideal, module)
    upper = torsion_submodule(module, annihilator(ideal_rep))
    if not result.carrier.contains(lower.carrier) or not upper.carrier.contains(result.carrier):
        raise InternalCheckError("trace sandwich IM <= trace <= M[Ann I] failed")
    return result


@_memoised("module")
def cotrace(ideal, module):
    """The cotrace of I in M: the joint kernel of all maps M -> dual(I).

    The sandwich Ann(I)M <= cotrace <= M[I] is re-checked on every call.
    """
    _require_ideal(ideal, module.algebra)
    ideal_rep = ideal.as_module()
    dual_ideal = matlis_dual(ideal_rep).rep
    hom = hom_module(module, dual_ideal)
    # Hom = 0 (I = 0 or M = 0): all of M, as _joint_kernel says too, before any generator map is built.
    result = module.full_submodule() if hom.dim == 0 else _joint_kernel(module, hom.generator_maps())
    lower = ideal_times_module(annihilator(ideal_rep), module)
    upper = torsion_submodule(module, ideal)
    if not result.carrier.contains(lower.carrier) or not upper.carrier.contains(result.carrier):
        raise InternalCheckError("cotrace sandwich Ann(I)M <= cotrace <= M[I] failed")
    return result


# -- Matlis duality ---------------------------------------------------------------


class DualModule:
    """The k-linear dual, whose rep has the transposed actions.  It holds no
    reference to its primal: it is memoised on it (matlis_dual)."""

    __slots__ = ("rep",)

    def __init__(self, rep):
        self.rep = rep

    def __repr__(self):
        return "DualModule(%r)" % (self.rep,)


@_memoised("module")
def matlis_dual(module):
    """Matlis dual of M, realized as the coordinate dual with transposed
    actions.  Dualizing twice restores the original action matrices, so it
    gives M's own interned rep back, R included."""
    actions = [a.transpose() for a in module.actions]
    return DualModule(module.algebra.module(module.dim, actions))


def ann_in_dual(dual, sub):
    """Ann_{dual}(U) = {f : f(U) = 0}, a submodule of the dual of M.

    Its dimension is dim M - dim U, which is asserted.
    """
    if matlis_dual(sub.module) is not dual:
        raise AlgebraMismatch("submodule does not live in the primal of this dual")
    carrier = sub.carrier
    result = _joint_kernel(dual.rep, [Matrix._of(carrier.field, carrier.rows, carrier.ambient_dim)])
    if result.dim != sub.module.dim - sub.dim:
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


def _multiplication_coords(hom, ideal, module, vectors, target=None):
    """Coordinates in hom = Hom(I, -) of r |-> r x, one row per x in vectors.

    The map's values on the ideal's generators g_i (its cover generators)
    are the g_i x in module, read in the coordinates of its submodule target
    when given.  A tuple outside hom.values breaks a syzygy, so it is no
    homomorphism.
    """
    ops = [module.element_action(g) for g in submodule_generators(ideal)]
    rows = []
    for x in vectors:
        images = [op.apply(x) for op in ops]
        if target is not None:
            images = [target.carrier.coords_of(y) for y in images]
            if None in images:
                raise InternalCheckError("I x escaped the target of the hom")
        coords = hom.values.coords_of([e for y in images for e in y])
        if coords is None:
            raise InternalCheckError("r |-> r x is not a homomorphism on the generators")
        rows.append(coords)
    return rows


def homothety_map(ideal, module):
    """Matrix of x |-> (r |-> r x) from M to Hom(I, IM), with onto flag."""
    _require_ideal(ideal, module.algebra)
    image = ideal_times_module(ideal, module)
    hom = hom_module(ideal.as_module(), image.as_module())
    field = module.algebra.field
    identity = Matrix.identity(field, module.dim).rows
    rows = _multiplication_coords(hom, ideal, module, identity, target=image)
    matrix = Matrix.from_cols(field, rows, nrows=hom.dim)
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
    _require_ideal(ideal, ambient.algebra)
    field = ambient.algebra.field
    domain = colon_submodule(sub, ideal)
    hom = hom_module(ideal.as_module(), sub.as_module())
    rows = _multiplication_coords(hom, ideal, ambient, domain.carrier.rows, target=sub)
    matrix = Matrix.from_cols(field, rows, nrows=hom.dim)
    ker = kernel(matrix)
    lifted = Subspace.from_vectors(field, ambient.dim, [domain.carrier.vector(c) for c in ker.rows])
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
    the basis vectors n of N.  relations is that submodule of N^v, block i
    holding the coefficient of the generator g_i, and rep is the quotient,
    with the standard vectors at the relations' non-pivot columns as basis.
    """

    rep: ModuleRep
    relations: Submodule

    @property
    def dim(self):
        return self.rep.dim


@_memoised("left")
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
    relations = Submodule(ambient, Subspace.from_vectors(field, ambient.dim, vecs, check=False), check=False)
    return TensorProduct(relations.quotient()[0], relations)


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
    if any(any(full.apply(row)) for row in tp.relations.carrier.rows):
        raise InternalCheckError("tensor evaluation does not kill the tensor relations")
    return tp.relations.carrier._on_lifts(full)


@dataclass(frozen=True)
class TensorEvalMap:
    """The canonical map (M/M[I]) tensor_R I -> M, x o r |-> r x."""

    matrix: Matrix
    injective: bool
    tensor: TensorProduct


def tensor_eval(module, ideal):
    """Matrix of (M/M[I]) tensor_R I -> M with injectivity flag."""
    _require_ideal(ideal, module.algebra)
    torsion = torsion_submodule(module, ideal)
    quotient_rep, _ = torsion.quotient()
    tp = tensor_product(quotient_rep, ideal.as_module())
    # A generator of M/M[I] lifts to M with its coordinates at the non-pivots of M[I].
    keep, zero = torsion.carrier.nonpivots(), module.algebra.field.zero
    lifts = [_dense(dict(zip(keep, g)), module.dim, zero) for g in quotient_rep.free_cover().generators]
    matrix = _evaluation(module, ideal, lifts, tp)
    return TensorEvalMap(matrix, rank(matrix) == tp.rep.dim, tp)


# -- Ext1 and Tor1 -----------------------------------------------------------------


@_memoised("module")
def ext1(ideal, module):
    """Ext1(R/I, M): the cokernel of Hom(R, M) -> Hom(I, M).

    For cyclic I the dimension is checked against dim M[Ann I] - dim IM.
    """
    _require_ideal(ideal, module.algebra)
    field = module.algebra.field
    ideal_rep = ideal.as_module()
    hom = hom_module(ideal_rep, module)
    identity = Matrix.identity(field, module.dim).rows
    restriction = _multiplication_coords(hom, ideal, module, identity)
    image = Submodule(hom.rep, Subspace.from_vectors(field, hom.dim, restriction, check=False), check=False)
    rep, _ = image.quotient()
    if is_cyclic_ideal(ideal):
        upper = torsion_submodule(module, annihilator(ideal_rep))
        lower = ideal_times_module(ideal, module)
        if rep.dim != upper.dim - lower.dim:
            raise InternalCheckError("cyclic Ext1 dimension disagrees with M[Ann I]/IM")
    return rep


@_memoised("module")
def tor1(module, ideal):
    """Tor1(M, R/I): the kernel of M tensor_R I -> M.

    For cyclic I the dimension is checked against dim M[I] - dim Ann(I)M.
    """
    _require_ideal(ideal, module.algebra)
    ideal_rep = ideal.as_module()
    tp = tensor_product(module, ideal_rep)
    evaluation = _evaluation(module, ideal, module.free_cover().generators, tp)
    rep = _joint_kernel(tp.rep, [evaluation]).as_module()
    if is_cyclic_ideal(ideal):
        upper = torsion_submodule(module, ideal)
        lower = ideal_times_module(annihilator(ideal_rep), module)
        if rep.dim != upper.dim - lower.dim:
            raise InternalCheckError("cyclic Tor1 dimension disagrees with M[I]/Ann(I)M")
    return rep


def is_cyclic_ideal(ideal):
    """Whether the ideal is generated by one element (v(I) <= 1)."""
    return len(submodule_generators(ideal)) <= 1


# -- injective embeddings and the colon route ----------------------------------------


@_memoised("module")
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
    inclusion = cover.matrix.transpose()
    if rank(inclusion) != module.dim:
        raise InternalCheckError("dualized free cover is not injective on M")
    for bm, bx in zip(module.actions, injective_rep.actions):
        if inclusion @ bm != bx @ inclusion:
            raise InternalCheckError("inclusion into the injective is not a module map")
    if ext1(algebra.max_ideal(), injective_rep).dim != 0:
        raise InternalCheckError("constructed module is not injective: Ext1(R/m, X) != 0")
    return injective_rep, inclusion


def trace_via_colon(member, ideal):
    """The trace of I in M computed as I(M :_X I) inside an extension X
    with Ext1(R/I, X) = 0.

    `member` is M as a submodule of X.  The result is cross-checked against
    the definitional trace computed on M alone.
    """
    ambient = member.module
    _require_ideal(ideal, ambient.algebra)
    if ext1(ideal, ambient).dim != 0:
        raise ExtNotVanishing("Ext1(R/I, X) != 0: the colon route does not apply")
    inside = colon_submodule(member, ideal)
    result = ideal_times_submodule(ideal, inside)
    definitional = trace(ideal, member.as_module())
    lifted = [member.carrier.vector(row) for row in definitional.carrier.rows]
    if Subspace.from_vectors(ambient.algebra.field, ambient.dim, lifted, check=False) != result.carrier:
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
    return socle(regular_module(algebra)).dim == 1


def has_commutative_endomorphisms(ideal):
    """Whether End_R(I) is commutative, tested on R-module generators."""
    rep = ideal.as_module()
    gens = hom_module(rep, rep).generator_maps()
    return all(f @ g == g @ f for f, g in itertools.combinations(gens, 2))


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


def random_element(algebra, rng):
    """A reproducible random element of the maximal ideal (coordinates over
    the basis, the constant coordinate 0)."""
    field = algebra.field
    coords = []
    for i in range(algebra.dim):
        if i == 0:
            coords.append(field.zero)
        elif field.is_finite:
            coords.append(field.from_int(rng.randrange(field.order)))
        else:
            coords.append(field.from_int(rng.randint(-2, 2)))
    return tuple(coords)


def sampled_ideals(algebra, seed):
    """Deterministic ideal sample: 0, m, R, and seeded random cyclics."""
    rng = random.Random(seed)
    reg = regular_module(algebra)
    ideals = [
        ideal_from_elements(algebra, []),
        algebra.max_ideal(),
        ideal_from_elements(algebra, ["1"]),
    ]
    for _ in range(SAMPLED_IDEALS):
        ideals.append(span_submodule(reg, [random_element(algebra, rng)]))
    return ideals


def _all_ideals_verdict(module, predicate, ideals, seed, cap=None):
    algebra = module.algebra
    if ideals is not None:
        evidence = "sampled"
        pool = list(ideals)
    elif algebra.field.is_finite:
        evidence = "exhaustive"
        pool = enumerate_cyclic_ideals(algebra) if cap is None else enumerate_cyclic_ideals(algebra, cap)
    elif seed is not None:
        evidence = "sampled"
        pool = sampled_ideals(algebra, seed)
    else:
        raise FieldNotFinite(
            "exhaustive testing needs a finite field; pass ideals=... or seed=..."
        )
    for ideal in pool:
        if not predicate(ideal, module):
            return PredicateVerdict(False, evidence, len(pool), ideal)
    return PredicateVerdict(True, evidence, len(pool), None)


def excellence_verdict(module, ideals=None, seed=None, cap=None):
    """Whether M is excellent (IM = trace for every ideal I).

    Over a finite field all cyclic ideals are tested, which is exhaustive
    because a module excellent for a family of ideals is excellent for
    their sum.  Over Q the result is a sampled verdict.
    """
    return _all_ideals_verdict(module, is_ideal_excellent, ideals, seed, cap)


def coexcellence_verdict(module, ideals=None, seed=None, cap=None):
    """Whether M is coexcellent (cotrace = M[I] for every ideal I)."""
    return _all_ideals_verdict(module, is_ideal_coexcellent, ideals, seed, cap)
