"""Artinian local k-algebras from polynomial presentations, and their modules.

An algebra R = k[x1..xn]/I is built by truncated linear algebra: for growing
degree bound D, the relation multiples of degree <= D are row reduced inside
the span of all monomials of degree <= D, and the non-pivot ("standard")
monomials form the candidate basis.  Once the standard set repeats at two
consecutive bounds, the action matrices are built and certified exactly
(pairwise commutation, vanishing of every relation, nilpotency of the
maximal ideal); certification failure just means "keep growing D", so a
successful return is proof that the quotient really is the algebra presented.

Modules are always held as commuting action matrices; ideals are submodules
of the regular module.  All values are immutable after construction and all
operations are pure.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache

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
from .linalg import FIELDS, Matrix, Subspace, _row_reduce, kernel, solve, vstack

ENUMERATION_CAP = 10 ** 6


# -- polynomials ---------------------------------------------------------------
#
# A polynomial in the presentation variables is a dict {exponent tuple: int}.
# Grammar (whitespace ignored):
#   expr   := ['-'] term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := atom ('^' uint)?
#   atom   := uint | variable
# Coefficients are integers; signs come from the leading/binary minus.

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|\+|-)")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError("unexpected character %r at position %d in %r" % (text[pos], pos, text))
        out.append(m.group(1))
        pos = m.end()
    return out


def poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        c2 = out.get(e, 0) + c
        if c2:
            out[e] = c2
        else:
            out.pop(e, None)
    return out


def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def poly_degree(a):
    return max((sum(e) for e in a), default=0)


def parse_poly(text, variables):
    """Parse the presentation grammar into {exponent tuple: int coeff}."""
    variables = list(variables)
    n = len(variables)
    var_index = {v: i for i, v in enumerate(variables)}
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial in %r" % text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        t = peek()
        pos += 1
        return t

    one = (0,) * n

    def parse_atom():
        t = take()
        if t is None:
            raise ParseError("unexpected end of polynomial in %r" % text)
        if t.isdigit():
            return {one: int(t)} if int(t) else {}
        if t in var_index:
            e = [0] * n
            e[var_index[t]] = 1
            return {tuple(e): 1}
        if re.match(r"[A-Za-z_]", t):
            raise ParseError("unknown variable %r in %r (have %s)" % (t, text, variables))
        raise ParseError("expected a variable or integer, got %r in %r" % (t, text))

    def parse_factor():
        base = parse_atom()
        if peek() == "^":
            take()
            t = take()
            if t is None or not t.isdigit():
                raise ParseError("exponent must be a nonnegative integer in %r" % text)
            k = int(t)
            if not base:
                return {} if k else {one: 1}
            # An atom is a single term, so its power is one term too.
            ((exp, coeff),) = base.items()
            return {tuple(k * x for x in exp): coeff ** k}
        return base

    def parse_term():
        acc = parse_factor()
        while peek() == "*":
            take()
            acc = poly_mul(acc, parse_factor())
        return acc

    acc = {}
    sign = 1
    if peek() == "-":
        take()
        sign = -1
    elif peek() == "+":
        take()
    while True:
        term = parse_term()
        if sign < 0:
            term = {e: -c for e, c in term.items()}
        acc = poly_add(acc, term)
        t = peek()
        if t is None:
            break
        if t == "+":
            sign = 1
        elif t == "-":
            sign = -1
        else:
            raise ParseError("expected '+' or '-', got %r in %r" % (t, text))
        take()
    return acc


class PolynomialPresentation:
    """Input data for an algebra: field, variables, relation polynomials."""

    __slots__ = ("field", "variables", "relations", "degree_cap", "dim_cap")

    def __init__(self, field, variables, relations, degree_cap=24, dim_cap=512):
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
        self.degree_cap = degree_cap
        self.dim_cap = dim_cap

    def describe(self):
        return {
            "field": self.field.name,
            "variables": list(self.variables),
            "relations": list(self.relations),
        }


def _monomials_up_to(nvars, degree):
    """All exponent tuples of total degree <= degree, low degree first."""
    out = []
    for d in range(degree + 1):
        out.extend(_monomials_of_degree(nvars, d))
    return out


def _monomials_of_degree(nvars, d):
    if nvars == 0:
        return [()] if d == 0 else []
    out = []
    for head in range(d, -1, -1):
        for tail in _monomials_of_degree(nvars - 1, d - head):
            out.append((head,) + tail)
    return out


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
        "_regular",
        "_max_ideal",
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
        self._regular = None
        self._max_ideal = None

    # The maximal ideal is the span of the non-unit basis monomials.
    def max_ideal_subspace(self):
        vecs = []
        for i in range(1, self.dim):
            v = [self.field.zero] * self.dim
            v[i] = self.field.one
            vecs.append(v)
        return Subspace.from_vectors(self.field, self.dim, vecs)

    def regular_module(self):
        if self._regular is None:
            rep = ModuleRep(self, self.dim, self.actions, label="R", is_regular=True)
            self._regular = rep
        return self._regular

    def max_ideal(self):
        """The maximal ideal as a Submodule of the regular module."""
        if self._max_ideal is None:
            self._max_ideal = Submodule(self.regular_module(), self.max_ideal_subspace())
        return self._max_ideal

    def element_from_poly(self, poly):
        """Coordinates of a polynomial's residue class."""
        acc = [self.field.zero] * self.dim
        for exp, coeff in sorted(poly.items()):
            vec = self.unit
            for v, e in enumerate(exp):
                # m is nilpotent, so a huge exponent reaches zero within dim steps.
                for _ in range(e):
                    if not any(vec):
                        break
                    vec = self.actions[v].apply(vec)
            c = self.field.from_int(coeff)
            acc = [a + c * x for a, x in zip(acc, vec)]
        return tuple(self.field.canonical(acc))

    def parse_element(self, text):
        return self.element_from_poly(parse_poly(text, self.variables))

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

    def describe(self):
        d = self.presentation.describe()
        d["dimension"] = self.dim
        return d

    def __repr__(self):
        return "ArtinAlgebra(%s[%s], dim %d)" % (
            self.field.name,
            ",".join(self.variables),
            self.dim,
        )


def build_algebra(presentation):
    """Construct the quotient algebra presented by relations.

    Raises ResidueFieldError when a relation has a nonzero constant term,
    NotArtinian when no finite local quotient emerges by the degree cap,
    and DimensionCapExceeded when the quotient dimension grows too big.
    """
    field = presentation.field
    variables = presentation.variables
    nvars = len(variables)
    relations = [parse_poly(r, variables) for r in presentation.relations]
    one_exp = (0,) * nvars
    for raw, rel in zip(presentation.relations, relations):
        if rel.get(one_exp):
            raise ResidueFieldError(
                "relation %r has nonzero constant term; the residue field would "
                "be larger than the coefficient field" % raw
            )
    relations = [r for r in relations if r]

    prev_standard = None
    for bound in range(1, presentation.degree_cap + 1):
        monos = _monomials_up_to(nvars, bound)
        # High degree first so elimination prefers to keep low-degree
        # monomials as the standard complement.
        order = sorted(monos, key=lambda e: (-sum(e), e))
        col_of = {e: i for i, e in enumerate(order)}
        rows = []
        for rel in relations:
            shift_cap = bound - poly_degree(rel)
            if shift_cap < 0:
                continue
            for shift in _monomials_up_to(nvars, shift_cap):
                row = [field.zero] * len(order)
                for exp, coeff in rel.items():
                    e = tuple(x + y for x, y in zip(exp, shift))
                    row[col_of[e]] = row[col_of[e]] + field.from_int(coeff)
                rows.append(field.canonical(row))
        red, pivots = _row_reduce(field, rows, len(order))
        pivset = set(pivots)
        standard = [order[j] for j in range(len(order)) if j not in pivset]
        if len(standard) > presentation.dim_cap:
            raise DimensionCapExceeded(
                "quotient dimension %d exceeds cap %d" % (len(standard), presentation.dim_cap)
            )
        standard_set = frozenset(standard)
        max_std_deg = max((sum(e) for e in standard), default=0)
        if prev_standard == standard_set and max_std_deg < bound:
            algebra = _assemble(field, variables, relations, order, red, pivots, standard, presentation)
            if algebra is not None:
                return algebra
        prev_standard = standard_set
    raise NotArtinian(
        "no stabilized finite local quotient up to degree %d; the ideal is "
        "probably not primary to (x1..xn)" % presentation.degree_cap
    )


def _assemble(field, variables, relations, order, red, pivots, standard, presentation):
    """Build action matrices from the reduced relation span and certify them.

    Returns None when certification fails (caller keeps growing the bound).
    """
    basis = sorted(standard, key=lambda e: (sum(e), e))
    index = {e: i for i, e in enumerate(basis)}
    dim = len(basis)
    # Normal form of each pivot monomial, read off the reduced rows:
    # pivot + sum(coeff * standard) = 0 in the quotient.
    normal = {}
    col_of = {e: i for i, e in enumerate(order)}
    for row_idx, pec in enumerate(pivots):
        pexp = order[pec]
        vec = [field.zero] * dim
        row = red[row_idx]
        for e, i in index.items():
            c = row[col_of[e]]
            if c:
                vec[i] = -c
        normal[pexp] = field.canonical(vec)

    nvars = len(variables)
    actions = []
    for v in range(nvars):
        cols = []
        for e in basis:
            e2 = list(e)
            e2[v] += 1
            e2 = tuple(e2)
            if e2 in index:
                col = [field.zero] * dim
                col[index[e2]] = field.one
            elif e2 in normal:
                col = normal[e2]
            else:
                return None
            cols.append(col)
        actions.append(Matrix.from_cols(field, cols, nrows=dim))

    # Exact certification: commutation, relation vanishing, m nilpotent.
    for i in range(nvars):
        for j in range(i + 1, nvars):
            if actions[i] @ actions[j] != actions[j] @ actions[i]:
                return None
    for rel in relations:
        if not _evaluate_poly_at(field, rel, actions, dim).is_zero():
            return None
    nil = _nilpotency_index(field, actions, dim)
    if nil is None:
        raise NotArtinian(
            "the quotient is finite-dimensional but not local: the chain of "
            "powers of (x1..xn) stabilizes at a nonzero ideal"
        )
    return ArtinAlgebra(field, variables, basis, actions, nil, presentation)


def _evaluate_poly_at(field, poly, mats, dim):
    acc = Matrix.zeros(field, dim, dim)
    for exp, coeff in sorted(poly.items()):
        term = Matrix.identity(field, dim)
        for v, e in enumerate(exp):
            for _ in range(e):
                if term.is_zero():
                    break
                term = mats[v] @ term
        acc = acc + term.scale(field.from_int(coeff))
    return acc


def _nilpotency_index(field, actions, dim):
    """Least N with m^N = 0, or None when the chain stops above zero."""
    current = Subspace.full(field, dim)
    for n in range(1, dim + 2):
        image_vecs = []
        for a in actions:
            for col in current.basis_columns():
                image_vecs.append(a.apply(col))
        nxt = Subspace.from_vectors(field, dim, image_vecs)
        if nxt.dim == 0:
            return n
        if nxt == current:
            return None
        current = nxt
    return None


# -- modules -------------------------------------------------------------------


class ModuleRep:
    """A finitely generated R-module as commuting action matrices.

    Identity semantics (no __eq__): caches key off object identity, and two
    ModuleReps are compared through their carriers or dimensions explicitly.
    """

    __slots__ = ("algebra", "dim", "actions", "label", "is_regular", "_mono_ops", "_cover", "presentation")

    def __init__(self, algebra, dim, actions, label="M", is_regular=False, presentation=None, check=False):
        self.algebra = algebra
        self.dim = dim
        self.actions = tuple(actions)
        self.label = label
        self.is_regular = is_regular
        self.presentation = presentation
        self._mono_ops = None
        self._cover = None
        if check:
            self.certify()

    def certify(self):
        """Exact check that the action matrices present an R-module."""
        n = len(self.actions)
        for i in range(n):
            for j in range(i + 1, n):
                if self.actions[i] @ self.actions[j] != self.actions[j] @ self.actions[i]:
                    raise InternalCheckError("module actions do not commute")
        for raw in self.algebra.presentation.relations:
            rel = parse_poly(raw, self.algebra.variables)
            if not _evaluate_poly_at(self.algebra.field, rel, self.actions, self.dim).is_zero():
                raise InternalCheckError("algebra relation %r does not vanish on module" % raw)

    def monomial_operator(self, i):
        """Action of the i-th algebra basis monomial on this module."""
        if self._mono_ops is None:
            ops = [Matrix.identity(self.algebra.field, self.dim)]
            for var, base in self.algebra.monomial_steps:
                ops.append(self.actions[var] @ ops[base])
            self._mono_ops = ops
        return self._mono_ops[i]

    def orbit(self, vec):
        """[b_s * vec for every algebra basis monomial b_s], in basis order.

        Walks the monomial tree, one action applied per monomial.
        """
        out = [tuple(vec)]
        for var, base in self.algebra.monomial_steps:
            out.append(self.actions[var].apply(out[base]))
        return out

    def element_action(self, r_vec):
        """Action matrix of the ring element with coordinates r_vec."""
        field = self.algebra.field
        terms = [(self.monomial_operator(i).rows, c) for i, c in enumerate(r_vec) if c]
        rows = []
        for a in range(self.dim):
            acc = [field.zero] * self.dim
            for op_rows, c in terms:
                for j, x in enumerate(op_rows[a]):
                    if x:
                        acc[j] += c * x
            rows.append(field.canonical(acc))
        return Matrix(field, rows, ncols=self.dim)

    def free_cover(self):
        """The module's FreeCover, built and certified on first use."""
        if self._cover is None:
            self._cover = FreeCover(self)
        return self._cover

    def zero_submodule(self):
        return Submodule(self, Subspace.zero(self.algebra.field, self.dim))

    def full_submodule(self):
        return Submodule(self, Subspace.full(self.algebra.field, self.dim), check=False)

    def describe(self):
        d = {"label": self.label, "dimension": self.dim}
        if self.presentation is not None:
            d["presentation"] = self.presentation
        return d

    def __repr__(self):
        return "ModuleRep(%s, dim %d over %r)" % (self.label, self.dim, self.algebra)


class Submodule:
    """An action-closed subspace of a ModuleRep."""

    __slots__ = ("module", "carrier", "_as_module")

    def __init__(self, module, carrier, check=True):
        if carrier.ambient_dim != module.dim:
            raise NotSubmodule("carrier ambient %d != module dim %d" % (carrier.ambient_dim, module.dim))
        if check:
            for a in module.actions:
                for col in carrier.basis_columns():
                    if not carrier.contains_vector(a.apply(col)):
                        raise NotSubmodule("carrier is not closed under the module action")
        self.module = module
        self.carrier = carrier
        self._as_module = None

    @property
    def dim(self):
        return self.carrier.dim

    def as_module(self):
        """(rep, inclusion) with rep the carrier as an abstract module.

        The inclusion matrix maps rep coordinates into the ambient module.
        Cached: repeated calls return the same objects, which lets the
        hom-space cache fire.
        """
        if self._as_module is None:
            field = self.module.algebra.field
            basis = self.carrier.basis
            actions = []
            for a in self.module.actions:
                cols = []
                for col in self.carrier.basis_columns():
                    image = a.apply(col)
                    coords = self.carrier.coords_of(image)
                    if coords is None:
                        raise NotSubmodule("carrier is not closed under the module action")
                    cols.append(coords)
                actions.append(Matrix.from_cols(field, cols, nrows=self.dim))
            rep = ModuleRep(self.module.algebra, self.dim, actions, label=self.module.label + "-sub")
            self._as_module = (rep, basis)
        return self._as_module

    def quotient(self):
        """(rep, projection, section) presenting module/self."""
        proj, section = self.carrier.quotient_maps()
        actions = [proj @ a @ section for a in self.module.actions]
        rep = ModuleRep(
            self.module.algebra,
            self.module.dim - self.dim,
            actions,
            label=self.module.label + "-quot",
        )
        return rep, proj, section

    def same_as(self, other):
        return self.module is other.module and self.carrier == other.carrier

    def __repr__(self):
        return "Submodule(dim %d of %r)" % (self.dim, self.module)


def regular_module(algebra):
    """R as a module over itself."""
    return algebra.regular_module()


def free_module(algebra, n):
    """R^n with block-diagonal action."""
    return power_module(algebra.regular_module(), n)


def power_module(module, n):
    """M^n = M (+) ... (+) M with block-diagonal action."""
    zero = module.algebra.field.zero
    d = module.dim
    actions = []
    for a in module.actions:
        rows = []
        for i in range(n):
            left, right = [zero] * (i * d), [zero] * ((n - 1 - i) * d)
            rows.extend(left + list(r) + right for r in a.rows)
        actions.append(Matrix(module.algebra.field, rows, ncols=n * d))
    return ModuleRep(module.algebra, n * d, actions, label="%s^%d" % (module.label, n))


def module_from_presentation(algebra, rows, n_gens=None):
    """Cokernel module R^n / (column span of P).

    `rows` is the presentation matrix as a list of rows of polynomial
    strings (or parsed polynomials); row count is the number of free
    generators n, columns are the relations.  An empty row list presents
    the free module R^n (pass n_gens explicitly in that case).
    """
    if n_gens is None:
        n_gens = len(rows)
    if rows and len(rows) != n_gens:
        raise ParseError("presentation has %d rows but %d generators" % (len(rows), n_gens))
    ncols = len(rows[0]) if rows else 0
    for r in rows:
        if len(r) != ncols:
            raise ParseError("ragged presentation matrix")
    free = free_module(algebra, n_gens)
    cols = []
    for j in range(ncols):
        col = []
        for i in range(n_gens):
            entry = rows[i][j]
            if isinstance(entry, str):
                vec = algebra.parse_element(entry)
            else:
                vec = algebra.element_from_poly(entry)
            col.extend(vec)
        cols.append(tuple(col))
    span = span_submodule(free, cols)
    rep, _, _ = span.quotient()
    rep.label = "coker"
    return rep


def span_submodule(module, vectors):
    """Smallest action-closed subspace containing the vectors."""
    field = module.algebra.field
    current = Subspace.from_vectors(field, module.dim, vectors)
    while True:
        new_vecs = list(current.basis_columns())
        for a in module.actions:
            for col in current.basis_columns():
                new_vecs.append(a.apply(col))
        nxt = Subspace.from_vectors(field, module.dim, new_vecs)
        if nxt == current:
            return Submodule(module, current, check=False)
        current = nxt


def _require_ideal(ideal, algebra):
    if not isinstance(ideal, Submodule) or not ideal.module.is_regular:
        raise NotSubmodule("expected an ideal, i.e. a submodule of the regular module")
    if ideal.module.algebra is not algebra:
        raise AlgebraMismatch("ideal belongs to a different algebra")


@lru_cache(maxsize=None)
def ideal_times_module(ideal, module):
    """The submodule I*M spanned by g*m over ideal generators g."""
    _require_ideal(ideal, module.algebra)
    field = module.algebra.field
    vecs = []
    for g in ideal.carrier.basis_columns():
        op = module.element_action(g)
        vecs.extend(op.col(j) for j in range(op.ncols))
    return Submodule(module, Subspace.from_vectors(field, module.dim, vecs), check=False)


def ideal_times_subspace(ideal, module, subspace):
    """Span of g*v over ideal generators g and v in the subspace."""
    _require_ideal(ideal, module.algebra)
    field = module.algebra.field
    vecs = []
    for g in ideal.carrier.basis_columns():
        op = module.element_action(g)
        for col in subspace.basis_columns():
            vecs.append(op.apply(col))
    return Subspace.from_vectors(field, module.dim, vecs)


@lru_cache(maxsize=None)
def torsion_submodule(module, ideal):
    """M[I] = {x in M : I x = 0}, the I-torsion submodule."""
    _require_ideal(ideal, module.algebra)
    field = module.algebra.field
    gens = ideal.carrier.basis_columns()
    if not gens:
        return module.full_submodule()
    stacked = vstack([module.element_action(g) for g in gens])
    return Submodule(module, kernel(stacked), check=False)


def colon(sub, ideal):
    """(N :_M I) = {x in M : I x is contained in N}."""
    module = sub.module
    _require_ideal(ideal, module.algebra)
    gens = ideal.carrier.basis_columns()
    if not gens:
        return module.full_submodule()
    proj, _ = sub.carrier.quotient_maps()
    stacked = vstack([proj @ module.element_action(g) for g in gens])
    return Submodule(module, kernel(stacked), check=False)


@lru_cache(maxsize=None)
def annihilator(module):
    """Ann_R(M) as an ideal (submodule of the regular module)."""
    algebra = module.algebra
    field = algebra.field
    d = algebra.dim
    rows = []
    # Unknown ring element r = sum r_s * (s-th basis monomial); the action
    # of r on M vanishes iff all entries of sum r_s * op_s are 0.
    ops = [module.monomial_operator(s) for s in range(d)]
    for i in range(module.dim):
        for j in range(module.dim):
            row = [ops[s].rows[i][j] for s in range(d)]
            rows.append(row)
    if not rows:
        return algebra.regular_module().full_submodule()
    ker = kernel(Matrix(field, rows, ncols=d))
    return Submodule(algebra.regular_module(), ker, check=False)


@lru_cache(maxsize=None)
def socle(module):
    """So(M) = M[m], the largest semisimple submodule."""
    return torsion_submodule(module, module.algebra.max_ideal())


def radical_core(module):
    """The intersection of the chain M, mM, m^2 M, ...

    Over an Artinian algebra the chain always reaches a fixed point within
    dim M steps (here in fact 0, since m is nilpotent).
    """
    algebra = module.algebra
    current = Subspace.full(algebra.field, module.dim)
    m = algebra.max_ideal()
    for _ in range(module.dim + 1):
        nxt = ideal_times_subspace(m, module, current)
        if nxt == current:
            break
        current = nxt
    return Submodule(module, current, check=False)


def minimal_generators(module):
    """(count, lifts): v(M) = dim M/mM with lifted standard-vector basis.

    The variables generate m, so mM is the column span of their actions.
    """
    field = module.algebra.field
    mm = Subspace.from_vectors(field, module.dim, [c for a in module.actions for c in a.cols()])
    pivset = set(mm.pivots)
    lifts = []
    for q in range(module.dim):
        if q not in pivset:
            v = [field.zero] * module.dim
            v[q] = field.one
            lifts.append(tuple(v))
    return len(lifts), lifts


class FreeCover:
    """A free presentation R^v -> M -> 0 built from minimal generators.

    generators: the lifts g_1..g_v from minimal_generators(M);
    matrix: P, dim M x v*dim R, the map R^v -> M in free_module(R, v)
        coordinates: column i*dim R + s is b_s * g_i for the s-th basis
        monomial b_s;
    section: S with P @ S = I, so column j of S writes the j-th basis vector
        of M as sum_i r_i g_i, with r_i in rows i*dim R .. (i+1)*dim R;
    syzygies: minimal generators of K = ker P as a submodule of R^v, each
        split into its v ring-element coordinates (z_1, ..., z_v).

    Construction checks that the R-span of the syzygies is all of ker P.
    """

    __slots__ = ("generators", "matrix", "section", "syzygies")

    def __init__(self, module):
        algebra = module.algebra
        field, d = algebra.field, algebra.dim
        v, gens = minimal_generators(module)
        self.generators = tuple(gens)
        cols = [w for g in gens for w in module.orbit(g)]
        self.matrix = Matrix.from_cols(field, cols, nrows=module.dim)
        self.section = solve(self.matrix, Matrix.identity(field, module.dim))
        if self.section is None:
            raise InternalCheckError("minimal generators do not span the module")
        free = free_module(algebra, v)
        ker = Submodule(free, kernel(self.matrix), check=False)
        rep, inclusion = ker.as_module()
        flat = [inclusion.apply(z) for z in minimal_generators(rep)[1]]
        span = Subspace.from_vectors(field, free.dim, [w for z in flat for w in free.orbit(z)])
        if span != ker.carrier:
            raise InternalCheckError("the syzygies do not generate the kernel of the free cover")
        self.syzygies = tuple(tuple(z[i * d : (i + 1) * d] for i in range(v)) for z in flat)


def is_essential(sub, module=None):
    """U is essential in M iff U contains the socle (finite length)."""
    module = sub.module if module is None else module
    if module is not sub.module:
        raise NotSubmodule("submodule belongs to a different module")
    return sub.carrier.contains(socle(module).carrier)


def is_small(sub, module=None):
    """U is small (superfluous) in M iff U is contained in mM."""
    module = sub.module if module is None else module
    if module is not sub.module:
        raise NotSubmodule("submodule belongs to a different module")
    return ideal_times_module(module.algebra.max_ideal(), module).carrier.contains(sub.carrier)


def direct_sum(a, b):
    """(rep, (incl_a, incl_b), (proj_a, proj_b)) for the direct sum."""
    if a.algebra is not b.algebra:
        raise AlgebraMismatch("direct sum over different algebras")
    field = a.algebra.field
    actions = []
    for ma, mb in zip(a.actions, b.actions):
        rows = []
        for i, r in enumerate(ma.rows):
            rows.append(list(r) + [field.zero] * b.dim)
        for i, r in enumerate(mb.rows):
            rows.append([field.zero] * a.dim + list(r))
        actions.append(Matrix(field, rows, ncols=a.dim + b.dim))
    rep = ModuleRep(a.algebra, a.dim + b.dim, actions, label="%s(+)%s" % (a.label, b.label))
    z_ab = Matrix.zeros(field, a.dim, b.dim)
    z_ba = Matrix.zeros(field, b.dim, a.dim)
    ia = vstack([Matrix.identity(field, a.dim), z_ba])
    ib = vstack([z_ab, Matrix.identity(field, b.dim)])
    pa = ia.transpose()
    pb = ib.transpose()
    return rep, (ia, ib), (pa, pb)


@lru_cache(maxsize=None)
def enumerate_cyclic_ideals(algebra, cap=ENUMERATION_CAP):
    """All cyclic ideals (r) of R, deduplicated, in a deterministic order.

    Requires a finite coefficient field and p^dim <= cap candidate
    generators.
    """
    field = algebra.field
    if not field.is_finite:
        raise FieldNotFinite("cyclic ideal enumeration needs a finite field")
    count = field.order ** algebra.dim
    if count > cap:
        raise EnumerationCapExceeded("would enumerate %d ring elements (cap %d)" % (count, cap))
    reg = algebra.regular_module()
    seen = {}
    for coords in itertools.product(field.elements(), repeat=algebra.dim):
        ideal = span_submodule(reg, [coords])
        seen.setdefault(ideal.carrier, ideal)
    return tuple(sorted(seen.values(), key=lambda s: s.carrier.sort_key()))


@lru_cache(maxsize=None)
def enumerate_submodules(module, cap=4096):
    """All submodules of M over a finite field, smallest first.

    Breadth-first closure: every submodule arises from a smaller one by
    adjoining a single element, so the search is exhaustive.
    """
    field = module.algebra.field
    if not field.is_finite:
        raise FieldNotFinite("submodule enumeration needs a finite field")
    if field.order ** module.dim > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            "module has %d elements, too many to scan" % field.order ** module.dim
        )
    all_vectors = list(itertools.product(field.elements(), repeat=module.dim))
    zero = module.zero_submodule()
    seen = {zero.carrier: zero}
    queue = [zero]
    while queue:
        current = queue.pop()
        base = current.carrier.basis_columns()
        for v in all_vectors:
            if current.carrier.contains_vector(v):
                continue
            bigger = span_submodule(module, base + [v])
            if bigger.carrier not in seen:
                if len(seen) >= cap:
                    raise EnumerationCapExceeded("more than %d submodules" % cap)
                seen[bigger.carrier] = bigger
                queue.append(bigger)
    return tuple(sorted(seen.values(), key=lambda s: s.carrier.sort_key()))


def ideal_from_elements(algebra, elements):
    """The ideal generated by ring elements (coordinate vectors or strings)."""
    reg = algebra.regular_module()
    vecs = []
    for e in elements:
        vecs.append(algebra.parse_element(e) if isinstance(e, str) else tuple(e))
    return span_submodule(reg, vecs)
