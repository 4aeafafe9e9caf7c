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

Hom starts from a free presentation R^v -> M of the source
(ModuleRep.free_cover, after Lux and Szoke, "Computing homomorphism spaces
between modules over finite dimensional algebras", Experimental Math. 12,
2003).  A map M -> N is its tuple of values on the v generators,
constrained by the syzygies, and hom_module(M, N) is the subspace of N^v
those tuples span: the trace is the span of the values.  Syzygies and Hom
find their generators in R^v and N^v; Hom is made a submodule of N^v only
for its generators.  Hom is the one construction: the tensor product is
counted through it by duality, dim M tensor N = dim Hom(M, dual N).
Ext1(R/I, M) and Tor1(M, R/I) are counted from dim Hom(I, M) and
dim M tensor I by the exact sequences of 0 -> I -> R -> R/I -> 0.  So are
the canonical maps whose surjectivity or injectivity, with (co)excellence,
characterizes their vanishing:
the homothety M -> Hom(I, IM) has kernel M[I], and the evaluation
(M/M[I]) tensor I -> M has image IM, so each test is one equation between
dimensions and no matrix of either map is built; the evaluation's is the
homothety's for dual(M).  Dense
dim N x dim M matrices of maps are built in one place, FreeCover.maps, from
their values on the generators, and only where the maps themselves are
needed: the cotrace's joint kernel, commutativity of endomorphisms, and
ModuleRep.element_action for an r with a term of degree >= 2,
multiplication by r being the map with values r g_i (a linear form acts
through the action matrices).  Only dense_hom_space, for the verifier's
deliberately broken trace, works in a space of size dim M * dim N.

Matlis duality is plain transposition: for an Artinian local k-algebra with
residue field k the k-linear dual of R is the injective hull of k, so
dualizing a module means transposing its action matrices.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

from .artin import (
    ENUMERATION_CAP,
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
from .linalg import Matrix, Subspace, hstack, kernel, rank

SAMPLED_IDEALS = 24  # seeded random cyclic ideals in a sampled verdict, besides 0, m and R


# -- Hom ------------------------------------------------------------------------


@_memoised("source")
def hom_module(source, target):
    """Hom_R(M, N) = Hom_R(source, target) in generator coordinates.

    A map f: M -> N is fixed by its values n_i = f(g_i) on the generators
    g_1..g_v of the source's free cover, and (n_1..n_v) in N^v gives a map
    exactly when sum_i z_i n_i = 0 for every syzygy z.  The result is that
    solution space, the canonical Subspace of k^(v * dim N) with block i
    holding n_i, so Hom is solved for and held with v * dim N coordinates.
    x_j acts on f through its values, (x_j f)(g_i) = x_j n_i, so it is a
    submodule of N^v (_hom_in_power); the coordinates of a map are those of
    its values in it.
    """
    if source.algebra is not target.algebra:
        raise AlgebraMismatch("hom between modules over different algebras")
    cover = source.free_cover()
    rows = []
    for z in cover.syzygies:
        rows.extend(hstack([target.element_action(zi) for zi in z]).rows)
    return kernel(Matrix._of(source.algebra.field, tuple(rows), len(cover.generators) * target.dim))


def _hom_in_power(source, target):
    """Hom(M, N) as a submodule of N^v, for its generators."""
    power = power_module(target, len(source.free_cover().generators))
    return Submodule(power, hom_module(source, target), check=False)


@_memoised("source")
def generator_maps(source, target):
    """The matrices of minimal generators of Hom(M, N) as an R-module.  A map
    f = sum_j r_j f_j kills m, or commutes with maps, when the f_j do, so
    these suffice for joint kernels and for commutativity.  The tuple holds
    no module, so its memo entry keeps no N^v alive."""
    return tuple(source.free_cover().maps(target, submodule_generators(_hom_in_power(source, target))))


def dense_hom_space(source, target):
    """The maps of Hom(M, N)'s basis, flattened row-major, as the canonical
    subspace of k^(dim N * dim M): the intertwiner space."""
    maps = source.free_cover().maps(target, hom_module(source, target).rows)
    vecs = [tuple(x for row in f.rows for x in row) for f in maps]
    return Subspace.from_vectors(target.algebra.field, target.dim * source.dim, vecs, check=False)


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
    vecs = [n[i : i + d] for n in hom.rows for i in range(0, len(n), d)]
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
    # Hom = 0 (I = 0 or M = 0): all of M, as _joint_kernel says too, before any generator map is built.
    if hom_module(module, dual_ideal).dim == 0:
        result = module.full_submodule()
    else:
        result = _joint_kernel(module, generator_maps(module, dual_ideal))
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


def is_homothety_onto(ideal, module):
    """Whether the homothety M -> Hom(I, IM), x |-> (r |-> r x), is onto.

    Its kernel is M[I], so it embeds M/M[I] in Hom(I, IM) and is onto
    exactly when dim M - dim M[I] = dim Hom(I, IM).  A larger left side
    cannot embed; that is checked.
    """
    _require_ideal(ideal, module.algebra)
    image = module.dim - torsion_submodule(module, ideal).dim
    hom = hom_module(ideal.as_module(), ideal_times_module(ideal, module).as_module()).dim
    if image > hom:
        raise InternalCheckError("homothety image larger than Hom(I, IM)")
    return image == hom


# -- tensor products ----------------------------------------------------------------


class Dimension(NamedTuple):
    """A functor's value known by its dimension over k, all that its readers read."""

    dim: int


@_memoised("left")
def tensor_product(left, right):
    """M tensor_R N by its dimension.  With E = dual(R), Hom(M tensor N, E) =
    Hom(M, Hom(N, E)) = Hom(M, dual N), and Matlis duality keeps dimensions, so
    it is dim Hom(M, dual N)."""
    if left.algebra is not right.algebra:
        raise AlgebraMismatch("tensor product over different algebras")
    return Dimension(hom_module(left, matlis_dual(right).rep).dim)


def is_tensor_eval_injective(module, ideal):
    """Whether the evaluation (M/M[I]) tensor_R I -> M, x o r |-> r x, is injective.

    Its image is IM, so it is injective exactly when dim (M/M[I]) tensor I =
    dim IM.  With D = dual(M), dual(M/M[I]) = Ann_D(M[I]) = ID and D[I] =
    Ann_D(IM), so this is dim Hom(I, ID) = dim D - dim D[I]: the homothety
    D -> Hom(I, ID) is onto, with its range check.  M/M[I] is never built.
    """
    _require_ideal(ideal, module.algebra)
    return is_homothety_onto(ideal, matlis_dual(module).rep)


# -- Ext1 and Tor1 -----------------------------------------------------------------


@_memoised("module")
def ext1(ideal, module):
    """Ext1(R/I, M) by its dimension.  Hom(-, M) on 0 -> I -> R -> R/I -> 0 gives
    0 -> M[I] -> M -> Hom(I, M) -> Ext1(R/I, M) -> Ext1(R, M) = 0, as Hom(R/I, M) = M[I],
    so it is dim Hom(I, M) - dim M + dim M[I].  For cyclic I it is checked against
    dim M[Ann I] - dim IM."""
    _require_ideal(ideal, module.algebra)
    ideal_rep = ideal.as_module()
    hom = hom_module(ideal_rep, module).dim
    dim = hom - module.dim + torsion_submodule(module, ideal).dim
    if not 0 <= dim <= hom:
        raise InternalCheckError("Ext1 dimension outside [0, dim Hom(I, M)]")
    if is_cyclic_ideal(ideal):
        upper, lower = torsion_submodule(module, annihilator(ideal_rep)), ideal_times_module(ideal, module)
        if dim != upper.dim - lower.dim:
            raise InternalCheckError("cyclic Ext1 dimension disagrees with M[Ann I]/IM")
    return Dimension(dim)


@_memoised("module")
def tor1(module, ideal):
    """Tor1(M, R/I) by its dimension.  M tensor - on 0 -> I -> R -> R/I -> 0 gives
    0 = Tor1(M, R) -> Tor1(M, R/I) -> M tensor I -> M, whose image is IM, so it is
    dim (M tensor I) - dim IM.  For cyclic I it is checked against dim M[I] - dim Ann(I)M."""
    _require_ideal(ideal, module.algebra)
    ideal_rep = ideal.as_module()
    tensor = tensor_product(module, ideal_rep).dim
    dim = tensor - ideal_times_module(ideal, module).dim
    if not 0 <= dim <= tensor:
        raise InternalCheckError("Tor1 dimension outside [0, dim M tensor I]")
    if is_cyclic_ideal(ideal):
        upper, lower = torsion_submodule(module, ideal), ideal_times_module(annihilator(ideal_rep), module)
        if dim != upper.dim - lower.dim:
            raise InternalCheckError("cyclic Tor1 dimension disagrees with M[I]/Ann(I)M")
    return Dimension(dim)


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
    gens = generator_maps(rep, rep)
    return all(f @ g == g @ f for f, g in itertools.combinations(gens, 2))


class PredicateVerdict(NamedTuple):
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


def _all_ideals_verdict(module, predicate, ideals, seed, cap):
    algebra = module.algebra
    if ideals is not None:
        evidence = "sampled"
        pool = list(ideals)
    elif algebra.field.is_finite:
        evidence = "exhaustive"
        pool = enumerate_cyclic_ideals(algebra, cap)
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


def excellence_verdict(module, ideals=None, seed=None, cap=ENUMERATION_CAP):
    """Whether M is excellent (IM = trace for every ideal I).

    Over a finite field all cyclic ideals are tested, which is exhaustive
    because a module excellent for a family of ideals is excellent for
    their sum.  Over Q the result is a sampled verdict.
    """
    return _all_ideals_verdict(module, is_ideal_excellent, ideals, seed, cap)


def coexcellence_verdict(module, ideals=None, seed=None, cap=ENUMERATION_CAP):
    """Whether M is coexcellent (cotrace = M[I] for every ideal I)."""
    return _all_ideals_verdict(module, is_ideal_coexcellent, ideals, seed, cap)
