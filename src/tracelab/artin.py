"""Artinian local k-algebras from polynomial presentations, and their modules.

An algebra R = k[x1..xn]/I is built only with a certificate that I is
primary to m = (x1..xn): Nakayama's lemma puts some m^D inside I near the
origin, and a Macaulay span of the relation multiples puts it inside I
itself (see build_algebra).  Inputs that are not Artinian at the origin, or
not local, are rejected in bounded time and told apart.

Modules are always held as commuting action matrices; ideals are submodules
of the regular module, and act through their minimal generators
(submodule_generators), one action per generator, never one per k-basis
vector.
Generated submodules rest on one fact: Rv is the k-span of module.orbit(v).
span_submodule eliminates the orbits once, the cyclic submodules are orbit
spans found with a Nakayama skip, and every submodule is a sum of cyclic
ones (enumerate_submodules).  All values are immutable after construction
and all operations are pure.  Module reps are interned per algebra by their
actions (ArtinAlgebra.module) and carriers by their basis (linalg.Subspace):
equal modules are one object and equal submodules one memo key, so what is
memoised on a module, or keyed by an ideal, is computed once for all copies.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import weakref

from .errors import (
    AlgebraMismatch,
    DimensionCapExceeded,
    EnumerationCapExceeded,
    FieldNotFinite,
    InternalCheckError,
    NotArtinian,
    NotSubmodule,
    ParseError,
    ResidueFieldError,
)
from .linalg import FIELDS, Matrix, Subspace, _dense, _row_reduce, _scalar_rows, _sparse, kernel, solve, vstack

ENUMERATION_CAP = 10 ** 6
MONOMIAL_CEILING = 1000  # columns of any one elimination in build_algebra
MAX_LITERAL_DIGITS = 1000  # per integer literal, numeric power over Q, and term coefficient
_COEFF_CEILING = 10 ** MAX_LITERAL_DIGITS
_MISSING = object()


def _memoised(owner):
    """Memoise a function on its argument named `owner`.

    Results live in the owner's lazily created `_memo` dict, keyed by the
    function and its other arguments (keywords included), so a result is
    freed with the object it describes.  Reps and carriers are interned
    (ArtinAlgebra.module, linalg.Subspace), so keys compare them by
    identity, and a Submodule compares by its module and carrier, so an
    ideal rebuilt elsewhere finds the same entry.  A Submodule's entries
    live on its module, keyed by its carrier.  The owner is left out of its
    own keys: an entry whose result does not point back at it makes no
    reference cycle, and is freed without waiting for the cyclic garbage
    collector.  These entries do point back, and wait for it: the algebra's
    regular_module and max_ideal (R points at its algebra), a module's own
    submodules (socle, torsion_submodule, ideal_times_module, trace,
    cotrace, the enumerations, and annihilator when the module is R),
    as_module of M's full submodule, which is M, hom_module(M, M),
    generator_maps(M, M) and tensor_product(M, M), whose keys hold M as the
    second argument, and a double dual: matlis_dual of dual(M) holds M, and
    M's own matlis_dual entry holds dual(M).  Otherwise Hom itself is a
    Subspace, the generator maps are matrices, a tensor product is its
    dimension, and a DualModule holds only its rep.  Exceptions are not
    memoised.
    """

    def decorate(fn):
        at = fn.__code__.co_varnames.index(owner)

        @functools.wraps(fn)
        def memoised(*args, **kwargs):
            obj = args[at] if at < len(args) else kwargs[owner]
            rest = args[:at] + args[at + 1 :]
            if type(obj) is Submodule:
                obj, rest = obj.module, (obj.carrier,) + rest
            try:
                memo = obj._memo
            except AttributeError:
                memo = obj._memo = {}
            key = (fn, rest, tuple(kwargs.items())) if kwargs else (fn, rest)
            result = memo.get(key, _MISSING)
            if result is _MISSING:
                result = memo[key] = fn(*args, **kwargs)
            return result

        return memoised

    return decorate


# -- polynomials ---------------------------------------------------------------
#
# A polynomial in the presentation variables is a dict {exponent tuple: int}.
# Grammar (whitespace ignored):
#   expr   := ['-' | '+'] term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := atom ('^' uint)?
#   atom   := uint | variable
# There are no parentheses, so a term is one coefficient times one monomial:
# numeric factors multiply into the coefficient, variable exponents add up.
# Coefficients are integers; signs come from the leading/binary minus.  In
# characteristic p a numeric power c^k is read as pow(c, k, p), a bare
# literal as itself, and the summed coefficients are reduced mod p at the
# end, zero terms dropped.  A term whose coefficient passes
# MAX_LITERAL_DIGITS digits is refused, so parsing is linear in the text.

# A match is one token (group 1) or a run of blanks; no match, a bad character.
_TOKEN = re.compile(r"(\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|\+|-)|\s+")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError("unexpected character %r at position %d in %r" % (text[pos], pos, text))
        if m.group(1):
            out.append(m.group(1))
        pos = m.end()
    return out


def parse_poly(text, variables, char=0):
    """Parse the grammar into {exponent tuple: nonzero int coeff} in characteristic char."""
    variables = list(variables)
    var_index = {v: i for i, v in enumerate(variables)}
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial in %r" % text)
    if tokens[0] not in ("+", "-"):
        tokens.insert(0, "+")
    tokens.append(None)  # the end, so every lookahead is an index

    def uint(t):
        if len(t) > MAX_LITERAL_DIGITS:
            raise ParseError("literal in %r has over %d digits" % (text[:40], MAX_LITERAL_DIGITS))
        return int(t)

    acc = {}
    pos = 0
    while tokens[pos] is not None:  # at the sign before a term
        if tokens[pos] not in ("+", "-"):
            raise ParseError("expected '+' or '-', got %r in %r" % (tokens[pos], text))
        coeff, exp = -1 if tokens[pos] == "-" else 1, [0] * len(variables)
        while True:  # at the sign or '*' before a factor
            t = tokens[pos + 1]
            c, v = 1, None
            if t is None:
                raise ParseError("unexpected end of polynomial in %r" % text)
            elif t.isdigit():
                c = uint(t)
            elif t in var_index:
                v = var_index[t]
            elif re.match(r"[A-Za-z_]", t):
                raise ParseError("unknown variable %r in %r (have %s)" % (t, text, variables))
            else:
                raise ParseError("expected a variable or integer, got %r in %r" % (t, text))
            pos += 2
            k = 1
            if tokens[pos] == "^":
                t = tokens[pos + 1]
                if t is None or not t.isdigit():
                    raise ParseError("exponent must be a nonnegative integer in %r" % text)
                k = uint(t)
                pos += 2
                if char:
                    c = pow(c, k, char)
                # log10(c) > 1/4, so a k past 4 * MAX_LITERAL_DIGITS is refused without a float
                elif c < 2 or (k < 4 * MAX_LITERAL_DIGITS and k * math.log10(c) <= MAX_LITERAL_DIGITS):
                    c **= k
                else:
                    raise ParseError("power in %r has over %d digits" % (text[:40], MAX_LITERAL_DIGITS))
            if v is not None:
                exp[v] += k
            coeff *= c
            if abs(coeff) >= _COEFF_CEILING:
                raise ParseError("coefficient in %r has over %d digits" % (text[:40], MAX_LITERAL_DIGITS))
            if tokens[pos] != "*":
                break
        if coeff:
            e = tuple(exp)
            coeff += acc.get(e, 0)
            if coeff:
                acc[e] = coeff
            else:
                del acc[e]
    if char:
        acc = {e: c % char for e, c in acc.items() if c % char}
    return acc


class PolynomialPresentation:
    """Input data for an algebra: field, variables, relation polynomials,
    and dim_cap, the largest quotient dimension build_algebra accepts."""

    __slots__ = ("field", "variables", "relations", "dim_cap")

    def __init__(self, field, variables, relations, dim_cap=512):
        if isinstance(field, str):
            if field not in FIELDS:
                raise ParseError("unknown field %r (expected one of %s)" % (field, sorted(FIELDS)))
            field = FIELDS[field]
        variables = tuple(variables)
        seen = set()
        for v in variables:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", v) or v in seen:
                raise ParseError("bad or repeated variable name %r" % v)
            seen.add(v)
        self.field = field
        self.variables = variables
        self.relations = tuple(relations)
        self.dim_cap = dim_cap


def _monomials_up_to(nvars, degree):
    """All exponent tuples of total degree <= degree, low degree first."""
    return [
        tuple(map(c.count, range(nvars)))
        for d in range(degree + 1)
        for c in itertools.combinations_with_replacement(range(nvars), d)
    ]


def monomial_label(exp, variables):
    parts = []
    for v, e in zip(variables, exp):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append("%s^%d" % (v, e))
    return "*".join(parts) if parts else "1"


class ArtinAlgebra:
    """A finite-dimensional commutative local k-algebra.

    Fields: the monomial basis (exponent tuples plus printable labels), one
    action matrix per presentation variable (multiplication in the quotient),
    the unit coordinate vector, and the maximal ideal as a subspace.  The
    basis always starts with the monomial 1, and the maximal ideal is spanned
    by the remaining basis vectors, so dim R/m = 1.
    """

    __slots__ = (
        "field",
        "dim",
        "variables",
        "basis_exponents",
        "basis_labels",
        "actions",
        "unit",
        "nilpotency_index",
        "presentation",
        "monomial_steps",
        "_modules",
        "_memo",
    )

    def __init__(self, field, variables, basis_exponents, actions, nilpotency_index, presentation):
        self.field = field
        self.variables = variables
        self.basis_exponents = tuple(basis_exponents)
        self.basis_labels = tuple(monomial_label(e, variables) for e in basis_exponents)
        self.dim = len(basis_exponents)
        self.actions = tuple(actions)
        unit = [field.zero] * self.dim
        unit[0] = field.one
        self.unit = tuple(unit)
        self.nilpotency_index = nilpotency_index
        self.presentation = presentation
        # The monomial tree: basis monomial s >= 1 is variable `var` times the
        # earlier (lower degree) basis monomial `base`.
        index = {e: i for i, e in enumerate(self.basis_exponents)}
        steps = []
        for exp in self.basis_exponents[1:]:
            var = next(j for j, e in enumerate(exp) if e > 0)
            rest = list(exp)
            rest[var] -= 1
            steps.append((var, index[tuple(rest)]))
        self.monomial_steps = tuple(steps)
        self._modules = weakref.WeakValueDictionary()

    def module(self, dim, actions):
        """The one ModuleRep with these actions: every rep is interned here,
        in a weak-valued table keyed by (dim, actions), and leaves it with the
        last reference to it.  R is the rep with the algebra's own actions
        (regular_module), however it was reached: Hom(R, R), R^1, the double
        dual of R and R's full submodule are that one object."""
        actions = tuple(actions)
        key = (dim, actions)
        rep = self._modules.get(key)
        if rep is None:
            rep = self._modules[key] = ModuleRep(self, dim, actions)
        return rep

    @_memoised("self")
    def max_ideal(self):
        """The maximal ideal of R, spanned by the non-unit basis monomials."""
        rows = Matrix.identity(self.field, self.dim).rows[1:]
        return Submodule(regular_module(self), Subspace(self.field, self.dim, rows, range(1, self.dim)))

    def element_from_poly(self, poly):
        """Coordinates of a polynomial's residue class."""
        acc = {}
        for exp, coeff in sorted(poly.items()):
            vec = {0: self.field.one}
            for v, e in enumerate(exp):
                # m is nilpotent, so a huge exponent reaches zero within dim steps.
                for _ in range(e):
                    if not vec:
                        break
                    vec = self.actions[v]._sparse_apply(vec)
            c = self.field.from_int(coeff)
            for i, x in vec.items():
                acc[i] = acc.get(i, 0) + c * x
        return tuple(self.field.canonical(_dense(acc, self.dim, self.field.zero)))

    @_memoised("self")
    def parse_element(self, text):
        return self.element_from_poly(parse_poly(text, self.variables, self.field.char))

    def element_label(self, vec):
        """Readable form of a coordinate vector, e.g. "1 + 2*x"."""
        parts = []
        for c, label in zip(vec, self.basis_labels):
            if not c:
                continue
            cs = self.field.format(c)
            if cs == "1" and label != "1":
                parts.append(label)
            elif label == "1":
                parts.append(cs)
            else:
                parts.append("%s*%s" % (cs, label))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "ArtinAlgebra(%s[%s], dim %d)" % (
            self.field.name,
            ",".join(self.variables),
            self.dim,
        )


def build_algebra(presentation):
    """Construct the local algebra k[x1..xn]/I presented by relations.

    Monomial route, when every relation is one term: the standard monomials,
    those no relation divides, are a basis, x_v sends each to its successor
    or to 0, and D is one past their top degree (_staircase).  Every other
    presentation, and each one whose walk stops, takes the Macaulay route,
    which alone rejects.

    Macaulay route, local step: for t = 0, 1, 2, ... (in steps that grow
    with t) the relation multiples, cut at degree t, are row reduced inside
    the monomials of degree <= t, high degree first; the non-pivot
    ("standard") monomials number h = dim k[x]/(I + m^(t+1)) <= dim R.  Once
    the span holds every monomial of degree t, m^t lies in I + m^(t+1), so
    by Nakayama it lies in I localised at the origin, and the basis and the
    normal forms are read from that elimination.  So is the nilpotency index
    D <= t of the maximal ideal: the least degree whose monomials all have
    normal form 0.  Global step: the uncut multiples of degree <= B (B = D,
    2D, 4D, ...) must span every monomial of degree D, which shows m^D in I
    itself, so k[x]/I is that local algebra.  Both steps stop at
    MONOMIAL_CEILING monomials, so every input is decided in bounded time.

    Raises ResidueFieldError when a relation has a nonzero constant term,
    DimensionCapExceeded as soon as h exceeds dim_cap, and NotArtinian when
    a step reaches the ceiling: "not Artinian at the origin" from the local
    step, "not local" from the global one.
    """
    field = presentation.field
    variables = presentation.variables
    nvars = len(variables)
    relations = []
    for raw in presentation.relations:
        rel = parse_poly(raw, variables, field.char)
        if rel.get((0,) * nvars):
            raise ResidueFieldError(
                "relation %r has nonzero constant term; the residue field would "
                "be larger than the coefficient field" % raw
            )
        if rel:
            relations.append((raw, rel))
    # The monomials of degree <= t number comb(t + n, n), which grows with t.
    over = (t for t in range(MONOMIAL_CEILING) if math.comb(t + nvars, nvars) > MONOMIAL_CEILING)
    top_cap = next(over, MONOMIAL_CEILING) - 1

    basis = _staircase(relations, nvars, presentation.dim_cap, top_cap)
    red = pivots = ()  # the staircase has no pivots: its D is certified by construction
    if basis is None:
        top = 0
        while True:
            order, rows = _relation_multiples(field, relations, nvars, top, cut=True)
            red, pivots = _row_reduce(field, rows)
            h = len(order) - len(pivots)
            if h > presentation.dim_cap:
                raise DimensionCapExceeded(
                    "quotient dimension is at least %d, over the cap %d" % (h, presentation.dim_cap)
                )
            if _has_degree(order, red, pivots, top):
                break
            if top == top_cap:
                raise NotArtinian(
                    "m^t is not in I + m^(t+1) at t = %d, the last degree within %d monomials: the "
                    "ideal is not Artinian at the origin, or its algebra is beyond that ceiling"
                    % (top_cap, MONOMIAL_CEILING)
                )
            # Steps of one up to t = 4, then of a quarter of t: a rejection at the
            # ceiling costs a few eliminations near its size, not one per degree.
            top = min(top + 1 + top // 4, top_cap)
        pivset = set(pivots)
        basis = [e for j, e in enumerate(order) if j not in pivset]
    basis.sort(key=lambda e: (sum(e), e))
    index = {e: i for i, e in enumerate(basis)}
    dim = len(basis)
    # A standard monomial is its basis vector, a pivot monomial minus the standard
    # part of its reduced row (zero in R), and any other monomial is zero.
    zero = [field.zero] * dim
    normal = {e: zero[:k] + [field.one] + zero[k + 1 :] for e, k in index.items()}
    for row, c in zip(red, pivots):
        vec = zero[:]
        for j, x in row.items():
            if j != c:
                vec[index[order[j]]] = -x
        normal[order[c]] = field.canonical(vec)
    actions = [
        Matrix.from_cols(field, [normal.get(e[:v] + (e[v] + 1,) + e[v + 1 :], zero) for e in basis], nrows=dim)
        for v in range(nvars)
    ]
    # m^d = 0 iff every monomial of degree d has normal form 0, and then all of
    # higher degree have too: D is one past the last degree with a nonzero
    # normal form, and on the Macaulay route D <= top, since _has_degree held there.
    nil = 1 + max(sum(e) for e, vec in normal.items() if any(vec))
    bound = nil
    while pivots and not _spans_degree(field, *_relation_multiples(field, relations, nvars, bound, cut=False), nil):
        if bound == top_cap:
            raise NotArtinian(
                "m^%d lies in the ideal near the origin, but the relation multiples of degree "
                "<= %d (the last degree within %d monomials) do not span it: the quotient is "
                "not local, or its certificate is beyond that ceiling" % (nil, top_cap, MONOMIAL_CEILING)
            )
        bound = min(2 * bound, top_cap)
    algebra = ArtinAlgebra(field, variables, basis, actions, nil, presentation)

    # Exact re-checks of what the certificate proves: the actions commute,
    # and then every relation vanishes on R iff it kills the unit.
    for a, b in itertools.combinations(actions, 2):
        if any(a._sparse_apply(dict(v)) != b._sparse_apply(dict(u)) for u, v in zip(a._columns(), b._columns())):
            raise InternalCheckError("the action matrices do not commute")
    for raw, rel in relations:
        if any(algebra.element_from_poly(rel)):
            raise InternalCheckError("relation %r does not vanish on the quotient" % raw)
    return algebra


def _staircase(relations, nvars, dim_cap, top_cap):
    """The standard monomials of a monomial ideal, walked up in degree; or None
    when a relation has two terms, or the walk passes dim_cap monomials or
    reaches degree top_cap, as it does when a variable has no pure power."""
    if any(len(rel) > 1 for _, rel in relations):
        return None
    # e is standard, so a generator g divides its successor s = e + x_v only
    # if g[v] = s[v]: only those generators are tested.
    divisors = {}
    for _, (g,) in relations:
        for v, k in enumerate(g):
            divisors.setdefault((v, k), []).append(g)
    walk, level = [], {(0,) * nvars}
    while level:
        if sum(next(iter(level))) >= top_cap or len(walk) + len(level) > dim_cap:
            return None
        walk += level
        steps = ((v, e[:v] + (e[v] + 1,) + e[v + 1 :]) for e in level for v in range(nvars))
        level = {s for v, s in steps if not any(all(map(operator.le, g, s)) for g in divisors.get((v, s[v]), ()))}
    return walk


def _relation_multiples(field, relations, nvars, top, cut):
    """(columns, rows): the relation multiples in the monomials of degree <= top.

    Columns run high degree first (the monomial list reversed), so the pivot
    of a reduced row is its leading monomial for a degree order.  With cut,
    every multiple is truncated at degree top (its image modulo m^(top+1)),
    and multiples the cut would zero are never built; without, only the
    multiples of degree <= top are taken (the Macaulay span).  Each row is
    sparse, a dict from column to coefficient, as _row_reduce takes it.
    """
    order = (monomials := _monomials_up_to(nvars, top))[::-1]
    col_of = {e: i for i, e in enumerate(order)}
    rows = []
    for _, rel in relations:
        terms = [(e, field.from_int(c)) for e, c in rel.items()]
        degrees = [sum(e) for e in rel]
        # The shifts of degree <= k lead the low-degree-first list.
        k = top - (min(degrees) if cut else max(degrees))
        for shift in monomials[: math.comb(k + nvars, nvars) if k >= 0 else 0]:
            row = {}
            for exp, coeff in terms:
                j = col_of.get(tuple(map(operator.add, exp, shift)))
                if j is not None:
                    row[j] = coeff
            rows.append(row)
    # Sparsest first, since _row_reduce pivots on the first row that leads
    # at a column: short rows (the cut leaves many single monomials) make
    # little fill-in and keep the fractions over Q small.
    rows.sort(key=len)
    return order, rows


def _spans_degree(field, order, rows, degree):
    """Whether the rows span every monomial of the given degree.

    In a row echelon form the rows with a pivot of degree <= `degree` span
    every combination of degree <= `degree`, so only they are fully reduced,
    re-indexed from the first such column: no entry lies left of a pivot.
    """
    red, pivots = _row_reduce(field, rows, echelon=True)
    first = next(j for j, e in enumerate(order) if sum(e) <= degree)
    low = [{j - first: x for j, x in row.items()} for row, c in zip(red, pivots) if c >= first]
    return _has_degree(order[first:], *_row_reduce(field, low), degree)


def _has_degree(order, red, pivots, degree):
    """Whether reduced dict rows span every monomial of the degree: each must
    be a pivot whose row holds that monomial alone, its one entry."""
    units = {c for row, c in zip(red, pivots) if len(row) == 1}
    return all(j in units for j, e in enumerate(order) if sum(e) == degree)


# -- modules -------------------------------------------------------------------


class ModuleRep:
    """A finitely generated R-module as commuting action matrices.

    One object per (algebra, dim, actions): reps are built only by the
    interning constructor ArtinAlgebra.module, so identity (there is no
    __eq__) is equality, and a rep is never changed once built.
    What is computed about a module (its free cover, its trace for an ideal,
    Hom out of it, its submodules' structure, ...) is memoised in its `_memo`.
    """

    __slots__ = ("algebra", "dim", "actions", "_memo", "__weakref__")

    def __init__(self, algebra, dim, actions):
        self.algebra = algebra
        self.dim = dim
        self.actions = tuple(actions)

    def orbit(self, vec):
        """[b_s * vec for every algebra basis monomial b_s], in basis order.

        Walks the monomial tree, one action applied per monomial.
        """
        out = [tuple(vec)]
        for var, base in self.algebra.monomial_steps:
            out.append(self.actions[var].apply(out[base]))
        return out

    def _sparse_orbit(self, vec):
        """orbit() from a {column: scalar} vector, each image such a dict too."""
        out = [vec]
        for var, base in self.algebra.monomial_steps:
            out.append(self.actions[var]._sparse_apply(out[base]))
        return out

    def element_action(self, r_vec):
        """Action matrix of the ring element with coordinates r_vec."""
        return self._element_action(tuple(r_vec))

    @_memoised("self")
    def _element_action(self, r):
        """Multiplication by r.  A linear form, with terms only at the unit and
        at degree-1 monomials x_v (monomial steps (v, 0)), acts as
        r_0 I + sum_s r_s actions[v_s], summed over the actions' column
        supports with no free cover.  Otherwise it is the module map with
        values r g_i on the cover generators g_i, and r g_i is the cover
        matrix (columns b_s g_i) applied to r placed in block i."""
        field, n = self.algebra.field, self.dim
        terms = [(self.algebra.monomial_steps[s - 1], c) for s, c in enumerate(r) if s and c]
        if all(base == 0 for (_, base), _ in terms):
            if not r[0] and len(terms) == 1 and terms[0][1] == 1:
                return self.actions[terms[0][0][0]]
            rows = [{i: r[0]} if r[0] else {} for i in range(n)]
            for (var, _), c in terms:
                for j, support in enumerate(self.actions[var]._columns()):
                    for i, a in support:
                        rows[i][j] = rows[i].get(j, 0) + c * a
            rows = [_dense(dict(zip(row, field.canonical(row.values()))), n, field.zero) for row in rows]
            return Matrix._of(field, tuple(rows), n)
        cover, z = self.free_cover(), (field.zero,) * self.algebra.dim
        v = len(cover.generators)
        values = tuple(x for i in range(v) for x in cover.matrix.apply(z * i + r + z * (v - 1 - i)))
        return cover.maps(self, [values])[0]

    @_memoised("self")
    def free_cover(self):
        """The module's FreeCover, built and certified on first use."""
        return FreeCover(self)

    def zero_submodule(self):
        return Submodule(self, Subspace.zero(self.algebra.field, self.dim))

    def full_submodule(self):
        return Submodule(self, Subspace.full(self.algebra.field, self.dim), check=False)

    def __repr__(self):
        return "ModuleRep(dim %d over %r)" % (self.dim, self.algebra)


class Submodule:
    """An action-closed subspace of a ModuleRep.

    Equal when the module and the carrier are the same objects: both are
    interned, so an ideal built twice is one key in every memo.  It has no memo
    of its own: its restriction, quotient and generators are memoised on
    its module, keyed by its carrier, so they are computed once per value.
    """

    __slots__ = ("module", "carrier")

    def __init__(self, module, carrier, check=True):
        if carrier.ambient_dim != module.dim:
            raise NotSubmodule("carrier ambient %d != module dim %d" % (carrier.ambient_dim, module.dim))
        self.module = module
        self.carrier = carrier
        if check:
            self.as_module()

    @property
    def dim(self):
        return self.carrier.dim

    def __eq__(self, other):
        if not isinstance(other, Submodule):
            return NotImplemented
        return self.module is other.module and self.carrier is other.carrier

    def __hash__(self):
        return hash((self.module, self.carrier))

    @_memoised("self")
    def as_module(self):
        """The carrier as an abstract module, in the coordinates of its
        canonical basis (carrier.rows; carrier.vector is the inclusion).

        Column j of each action holds the coordinates of the action applied
        to basis vector j; an image outside the carrier raises NotSubmodule.
        The rep is interned, so submodules with equal actions share it and
        what is memoised on it (its Hom spaces, ...).
        """
        actions = []
        for a in self.module.actions:
            cols = [self.carrier.coords_of(a.apply(row)) for row in self.carrier.rows]
            if None in cols:
                raise NotSubmodule("carrier is not closed under the module action")
            actions.append(Matrix.from_cols(a.field, cols, nrows=self.dim))
        return self.module.algebra.module(self.dim, actions)

    @_memoised("self")
    def quotient(self):
        """(rep, proj) presenting module/self: proj is the carrier's
        projection, and each action of the rep is proj @ a on the lifts
        (the standard vectors at the carrier's non-pivot columns)."""
        proj = self.carrier.projection()
        actions = [proj @ self.carrier._on_lifts(a) for a in self.module.actions]
        return self.module.algebra.module(proj.nrows, actions), proj

    def __repr__(self):
        return "Submodule(dim %d of %r)" % (self.dim, self.module)


@_memoised("algebra")
def regular_module(algebra):
    """R as a module over itself: the rep with the algebra's own actions."""
    return algebra.module(algebra.dim, algebra.actions)


def free_module(algebra, n):
    """R^n with block-diagonal action."""
    return power_module(regular_module(algebra), n)


def power_module(module, n):
    """M^n = M (+) ... (+) M with block-diagonal action."""
    z, d = (module.algebra.field.zero,), module.dim
    actions = []
    for a in module.actions:
        rows = tuple(z * (i * d) + r + z * ((n - 1 - i) * d) for i in range(n) for r in a.rows)
        actions.append(Matrix._of(module.algebra.field, rows, n * d))
    return module.algebra.module(n * d, actions)


def module_from_presentation(algebra, rows, n_gens=None):
    """Cokernel module R^n / (column span of P).

    `rows` is the presentation matrix as a list of rows of polynomial
    strings (or parsed polynomials); row count is the number of free
    generators n, columns are the relations.  An empty row list presents
    the free module R^n (pass n_gens explicitly in that case).  R^n is
    refused above the algebra's dim_cap, before it is built.
    """
    if n_gens is None:
        n_gens = len(rows)
    cap = algebra.presentation.dim_cap
    if n_gens * algebra.dim > cap:
        raise DimensionCapExceeded(
            "R^%d has dimension %d, over the cap %d" % (n_gens, n_gens * algebra.dim, cap)
        )
    if rows and len(rows) != n_gens:
        raise ParseError("presentation has %d rows but %d generators" % (len(rows), n_gens))
    ncols = len(rows[0]) if rows else 0
    for r in rows:
        if len(r) != ncols:
            raise ParseError("ragged presentation matrix")

    def element(entry):
        return algebra.parse_element(entry) if isinstance(entry, str) else algebra.element_from_poly(entry)

    # Column j of the presentation, as a vector of R^n.
    cols = [tuple(x for row in rows for x in element(row[j])) for j in range(ncols)]
    return span_submodule(free_module(algebra, n_gens), cols).quotient()[0]


def span_submodule(module, vectors):
    """Rv_1 + ... + Rv_k, the smallest submodule containing the vectors.

    Rv is the k-span of module.orbit(v), so this is one elimination of the
    orbits, walked as dicts.  Only the given vectors need the scalar check.
    """
    vectors = _scalar_rows(module.algebra.field, vectors, module.dim)
    orbits = [w for v in vectors for w in module._sparse_orbit(_sparse(v))]
    span = Subspace.from_vectors(module.algebra.field, module.dim, orbits, check=False)
    return Submodule(module, span, check=False)


def _require_ideal(ideal, algebra):
    if not isinstance(ideal, Submodule) or ideal.module is not regular_module(ideal.module.algebra):
        raise NotSubmodule("expected an ideal, i.e. a submodule of the regular module")
    if ideal.module.algebra is not algebra:
        raise AlgebraMismatch("ideal belongs to a different algebra")


@_memoised("module")
def ideal_times_module(ideal, module):
    """IM = g_1 M + ... + g_v M over the ideal generators g_i."""
    return ideal_times_submodule(ideal, module.full_submodule())


def ideal_times_submodule(ideal, sub):
    """IU, the span of g*u over ideal generators g and u in a basis of U.

    This is all of IU because U is a submodule: s*g*u lies in g*U.
    """
    module = sub.module
    _require_ideal(ideal, module.algebra)
    vecs = sub.carrier._images([module.element_action(g) for g in submodule_generators(ideal)])
    span = Subspace.from_vectors(module.algebra.field, module.dim, vecs, check=False)
    return Submodule(module, span, check=False)


def _joint_kernel(module, maps):
    """The submodule of M on which every given map out of M (a matrix with
    dim M columns) vanishes: all of M when the maps have no row."""
    rows = tuple(itertools.chain.from_iterable(f.rows for f in maps))
    if not rows:
        return module.full_submodule()
    return Submodule(module, kernel(Matrix._of(module.algebra.field, rows, module.dim)), check=False)


@_memoised("module")
def torsion_submodule(module, ideal):
    """M[I] = {x in M : I x = 0}, the joint kernel of the ideal generators."""
    _require_ideal(ideal, module.algebra)
    return _joint_kernel(module, [module.element_action(g) for g in submodule_generators(ideal)])


def colon(sub, ideal):
    """(N :_M I) = {x in M : g x in N for each ideal generator g}, the
    preimage of (M/N)[I] under the projection M -> M/N.

    That is all of (N :_M I) because N is a submodule: g x in N gives
    s g x in N.
    """
    module = sub.module
    _require_ideal(ideal, module.algebra)
    gens = submodule_generators(ideal)
    if not gens:  # I = 0: all of M, as _joint_kernel says too, without building proj first
        return module.full_submodule()
    proj = sub.carrier.projection()
    return _joint_kernel(module, [proj @ module.element_action(g) for g in gens])


@_memoised("module")
def annihilator(module):
    """Ann_R(M) as an ideal (submodule of the regular module).

    r = sum_s r_s b_s kills M iff r g = sum_s r_s (b_s g) = 0 for each
    minimal generator g, so Ann is the joint kernel of the maps r |-> r g,
    each the matrix with the orbit of its g as columns.
    """
    algebra, gens = module.algebra, minimal_generators(module)[1]
    maps = [Matrix.from_cols(algebra.field, module.orbit(g), nrows=module.dim) for g in gens]
    return _joint_kernel(regular_module(algebra), maps)


@_memoised("module")
def socle(module):
    """So(M) = M[m], the largest semisimple submodule: the joint kernel of
    the variables, which generate m."""
    return _joint_kernel(module, module.actions)


@_memoised("sub")
def submodule_generators(sub):
    """Minimal generators of U, as vectors of M: the carrier rows whose pivot
    is not one of mU, the span of the actions on the rows (on their columns
    if U = M).  A subspace of U leads only at pivots of U, so these are the
    rows, in order, that minimal_generators(U.as_module()) would lift.

    For an ideal they are ring elements g_1..g_v, the inclusions into R of
    the cover generators of the ideal as a module, so a map out of I is read
    on the same g_i.  Every action of I goes through them: r = sum_i s_i g_i
    gives r x = sum_i s_i (g_i x)."""
    module, mu = sub.module, sub.carrier._images(sub.module.actions)
    pivots = set(_row_reduce(module.algebra.field, mu, echelon=True)[1])
    return tuple(u for u, p in zip(sub.carrier.rows, sub.carrier.pivots) if p not in pivots)


def minimal_generators(module):
    """(count, lifts): v(M) = dim M/mM and the standard vectors off the pivots of mM."""
    lifts = list(submodule_generators(module.full_submodule()))
    return len(lifts), lifts


class FreeCover:
    """A free presentation R^v -> M -> 0 built from minimal generators.

    generators: the lifts g_1..g_v from minimal_generators(M);
    matrix: P, dim M x v*dim R, the map R^v -> M in free_module(R, v)
        coordinates: column i*dim R + s is b_s * g_i for the s-th basis
        monomial b_s; for R (regular_module, the one rep with the algebra's
        own actions), the generator is 1 and P = I with no orbit walk, as
        b_s * 1 is the s-th basis vector;
    section: S with P @ S = I, so column j of S writes the j-th basis vector
        of M as sum_i r_i g_i, with r_i in rows i*dim R .. (i+1)*dim R; S is
        P itself, with no elimination, when P = I (as for R and R^n);
    syzygies: minimal generators of K = ker P as a submodule of R^v, read
        in R^v, each split into its v ring-element coordinates (z_1..z_v).

    The syzygies are built on first access, which checks that their R-span
    is all of ker P; a module that is only acted on never needs them.
    """

    __slots__ = ("algebra", "generators", "matrix", "section", "_memo")

    def __init__(self, module):
        self.algebra = algebra = module.algebra
        identity = Matrix.identity(algebra.field, module.dim)
        if module is regular_module(algebra):
            self.generators, self.matrix = (algebra.unit,), identity
        else:
            self.generators = tuple(minimal_generators(module)[1])
            cols = [w for g in self.generators for w in module.orbit(g)]
            self.matrix = Matrix.from_cols(algebra.field, cols, nrows=module.dim)
        self.section = self.matrix if self.matrix == identity else solve(self.matrix, identity)
        if self.section is None:
            raise InternalCheckError("minimal generators do not span the module")

    @property
    @_memoised("self")
    def syzygies(self):
        d, v = self.algebra.dim, len(self.generators)
        free = free_module(self.algebra, v)
        ker = _joint_kernel(free, [self.matrix])
        flat = submodule_generators(ker)
        if span_submodule(free, flat).carrier != ker.carrier:
            raise InternalCheckError("the syzygies do not generate the kernel of the free cover")
        return tuple(tuple(z[i * d : (i + 1) * d] for i in range(v)) for z in flat)

    def maps(self, target, tuples):
        """The dim N x dim M matrix of the map M -> N = target with each given
        value tuple (n_1..n_v), n_i the image of g_i, concatenated.

        f(m) = sum_i r_i n_i for m = sum_i r_i g_i, so F = C @ S with column
        (i, s) of C the vector b_s n_i; the C of all tuples are stacked to
        share one product with the section S.
        """
        if not tuples:  # no map: nothing to stack or multiply
            return []
        field, dN, v = target.algebra.field, target.dim, len(self.generators)
        stacked = []
        for n in tuples:
            cols = [w for i in range(v) for w in target.orbit(n[i * dN : (i + 1) * dN])]
            stacked.extend(zip(*cols))
        images = Matrix._of(field, tuple(stacked), self.section.nrows)
        if self.section is not self.matrix:  # else S = P = I, as for R and R^n
            images = images @ self.section
        return [
            Matrix._of(field, images.rows[t * dN : (t + 1) * dN], self.section.ncols)
            for t in range(len(tuples))
        ]


def is_essential(sub):
    """U is essential in M iff U contains the socle (finite length)."""
    return sub.carrier.contains(socle(sub.module).carrier)


def is_small(sub):
    """U is small (superfluous) in M iff U is contained in mM."""
    module = sub.module
    return ideal_times_module(module.algebra.max_ideal(), module).carrier.contains(sub.carrier)


def direct_sum(a, b):
    """(rep, (incl_a, incl_b), (proj_a, proj_b)) for the direct sum."""
    if a.algebra is not b.algebra:
        raise AlgebraMismatch("direct sum over different algebras")
    field = a.algebra.field
    actions = []
    za, zb = (field.zero,) * a.dim, (field.zero,) * b.dim
    for ma, mb in zip(a.actions, b.actions):
        rows = tuple(r + zb for r in ma.rows) + tuple(za + r for r in mb.rows)
        actions.append(Matrix._of(field, rows, a.dim + b.dim))
    rep = a.algebra.module(a.dim + b.dim, actions)
    z_ab = Matrix.zeros(field, a.dim, b.dim)
    z_ba = Matrix.zeros(field, b.dim, a.dim)
    ia = vstack([Matrix.identity(field, a.dim), z_ba])
    ib = vstack([z_ab, Matrix.identity(field, b.dim)])
    pa = ia.transpose()
    pb = ib.transpose()
    return rep, (ia, ib), (pa, pb)


def enumerate_cyclic_ideals(algebra, cap=ENUMERATION_CAP):
    """All cyclic ideals (r) of R, smallest first: the cyclic submodules of
    the regular module.  Requires a finite field and p^dim <= cap."""
    field = algebra.field
    if not field.is_finite:
        raise FieldNotFinite("cyclic ideal enumeration needs a finite field")
    count = field.order ** algebra.dim
    if count > cap:
        raise EnumerationCapExceeded("would enumerate %d ring elements (cap %d)" % (count, cap))
    return _cyclic_submodules(regular_module(algebra))


@_memoised("module")
def _cyclic_submodules(module):
    """Every cyclic submodule Rv of M over a finite field, smallest first.

    The candidates are 0 and each v with first nonzero coordinate 1, as
    R(cv) = Rv for scalars c != 0; block k holds those with it at k.  Rv is
    the span of the orbit of v, and mRv the span of the rest of it.  By
    Nakayama each element of J \\ mJ generates J, so once J = Rv is found the
    normalised vectors of v + mJ are skipped: these sets partition the
    candidates, and each J is spanned once.  When the first candidate e_k of
    block k spans a J whose mJ holds e_{k+1}..e_{n-1}, the block is e_k + mJ
    and is skipped whole; in R, that is "units generate R".
    """
    field, n, p = module.algebra.field, module.dim, module.algebra.field.char
    found, skip = [module.zero_submodule()], set()
    for k in range(n):
        for tail in itertools.product(range(p), repeat=n - 1 - k):
            v = (0,) * k + (1,) + tail
            if v in skip:
                skip.remove(v)  # each candidate is met once
                continue
            rad = Subspace.from_vectors(field, n, module._sparse_orbit(_sparse(v))[1:], check=False)
            span = Subspace.from_vectors(field, n, rad.rows + (v,), check=False)
            found.append(Submodule(module, span, check=False))
            if not any(tail) and set(range(k + 1, n)) <= set(rad.pivots):
                break
            coset = [v]  # v + mJ, grown one basis vector of mJ at a time
            for row in rad.rows:
                coset = [tuple([(a + c * b) % p for a, b in zip(w, row)]) for w in coset for c in range(p)]
            for w in coset:
                c = pow(next(filter(None, w)), -1, p)
                skip.add(w if c == 1 else tuple([c * x % p for x in w]))
    return tuple(sorted(found, key=lambda s: s.carrier.sort_key()))


@_memoised("module")
def enumerate_submodules(module, cap=4096):
    """All submodules of M over a finite field, smallest first.

    Every submodule is a sum of cyclic ones, so they are the closure of {0}
    under sums with the cyclic submodules.
    """
    field = module.algebra.field
    if not field.is_finite:
        raise FieldNotFinite("submodule enumeration needs a finite field")
    if field.order ** module.dim > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            "module has %d elements, too many to scan" % field.order ** module.dim
        )
    cyclic = [c.carrier for c in _cyclic_submodules(module)]
    found, seen = [cyclic[0]], {cyclic[0]}  # from 0, the smallest cyclic submodule
    for current in found:  # breadth first: found grows while it is walked
        for bigger in (current.sum(c) for c in cyclic):
            if bigger not in seen:
                if len(found) >= cap:
                    raise EnumerationCapExceeded("more than %d submodules" % cap)
                seen.add(bigger)
                found.append(bigger)
    return tuple(Submodule(module, c, check=False) for c in sorted(found, key=Subspace.sort_key))


def ideal_from_elements(algebra, elements):
    """The ideal generated by ring elements (coordinate vectors or strings)."""
    vecs = [algebra.parse_element(e) if isinstance(e, str) else tuple(e) for e in elements]
    return span_submodule(regular_module(algebra), vecs)
