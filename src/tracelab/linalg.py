"""Exact linear algebra over Q and the prime fields F_2, F_3, F_5.

Every higher-level equality in this package (equality of submodules, traces,
torsion subspaces, ...) reduces to structural equality of canonical subspace
bases computed here, so all arithmetic is exact.  Over Q a scalar is a plain
int when integral and a fractions.Fraction otherwise; over F_p it is a plain
int in [0, p).  Each field owns one normalising hook, `canonical(row)`
(x % p over F_p; an integral Fraction to its int over Q), applied to every
scalar computed here, so structural equality is value equality.

Everything is row-major.  Matrices are dense, immutable tuples of row
tuples; the public constructors canonicalise their input and reject any
scalar but an int or, over Q, a Fraction, and results take the trusted path
Matrix._of.  A matrix keeps the nonzero entries of each column once built:
apply() walks them for a dense vector, and _sparse_apply() takes a
{column: scalar} dict to one, canonicalising only the entries it touched.
There is one elimination core, _row_reduce, and it is sparse: rows are dicts
of their nonzero entries, each reduced against the pivot rows found so far,
keyed by leading column, then back substitution.  Vectors that only feed an
elimination (orbits, images, Macaulay rows) are built as such dicts, and
reduced rows come out as dicts, made dense only where they are stored: a
Subspace holds its reduced row echelon basis, a form unique per subspace, so
structural equality of Subspace values decides equality of subspaces.
Internal spans pass from_vectors(check=False), skipping the scalar check.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction

from .errors import DimensionMismatch, FieldNotFinite

SUPPORTED_PRIMES = (2, 3, 5)


class RationalField:
    """The field Q: a scalar is an int when integral, else a Fraction (den > 1)."""

    char = 0
    order = None
    name = "Q"
    is_finite = False
    zero = 0
    one = 1

    def from_int(self, n):
        return operator.index(n)

    def format(self, x):
        """Render a scalar as "p" or "p/q" with den > 0 and gcd(p, q) = 1."""
        n, d = x.numerator, x.denominator
        return "%d" % n if d == 1 else "%d/%d" % (n, d)

    def to_json(self, x):
        return self.format(x)

    def sort_key(self, x):
        return (x.numerator, x.denominator)

    def elements(self):
        raise FieldNotFinite("Q has infinitely many elements")

    def inverse(self, x):
        y = Fraction(1, x)
        return y.numerator if y.denominator == 1 else y

    def canonical(self, row):
        """The row with each integral Fraction demoted to its int, as a new list."""
        return [x.numerator if type(x) is Fraction and x.denominator == 1 else x for x in row]

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """The prime field F_p for p in {2, 3, 5}, with scalars the ints 0..p-1."""

    is_finite = True
    zero = 0
    one = 1

    def __init__(self, p):
        if p not in SUPPORTED_PRIMES:
            raise ValueError("supported primes are %s, got %r" % (SUPPORTED_PRIMES, p))
        self.char = p
        self.order = p
        self.name = "F%d" % p

    def from_int(self, n):
        return n % self.char

    def format(self, x):
        return "%d" % x

    def to_json(self, x):
        return x

    def sort_key(self, x):
        return (x, 1)

    def elements(self):
        return tuple(range(self.char))

    def inverse(self, x):
        return pow(x, -1, self.char)

    def canonical(self, row):
        """The residues of a row of ints, as a new list."""
        p = self.char
        return [x % p for x in row]

    def __eq__(self, other):
        return type(other) is PrimeField and other.char == self.char

    def __hash__(self):
        return hash(("F", self.char))

    def __repr__(self):
        return self.name


QQ = RationalField()
_GF_CACHE = {p: PrimeField(p) for p in SUPPORTED_PRIMES}


def GF(p):
    """Return the shared PrimeField instance for p in {2, 3, 5}."""
    try:
        return _GF_CACHE[p]
    except KeyError:
        raise ValueError("supported primes are %s, got %r" % (SUPPORTED_PRIMES, p)) from None


FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5)}


class Matrix:
    """An immutable dense matrix over a fixed field.

    Entries are stored row-major as a tuple of row tuples; `entries length
    = rows * cols` holds by construction.  Matrices hash and compare by
    value (field included), so canonical forms can be deduplicated.  The
    hash and the column support that apply() walks are built on first use
    and kept; they take no part in equality.
    """

    __slots__ = ("field", "nrows", "ncols", "rows", "_hash", "_support")

    def __init__(self, field, rows, ncols=None):
        rows = _scalar_rows(field, rows)
        if rows:
            ncols = len(rows[0])
            for r in rows:
                if len(r) != ncols:
                    raise DimensionMismatch("ragged rows in matrix literal")
        elif ncols is None:
            ncols = 0
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def _of(cls, field, rows, ncols):
        """Trusted constructor: rows is a tuple of length-ncols canonical tuples."""
        m = object.__new__(cls)
        m.field, m.nrows, m.ncols, m.rows = field, len(rows), ncols, rows
        return m

    @classmethod
    def identity(cls, field, n):
        z, o = (field.zero,), (field.one,)
        return cls._of(field, tuple(z * i + o + z * (n - 1 - i) for i in range(n)), n)

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls._of(field, ((field.zero,) * ncols,) * nrows, ncols)

    @classmethod
    def from_cols(cls, field, cols, nrows=None):
        """Build a matrix from a sequence of column vectors."""
        cols = [tuple(c) for c in cols]
        if nrows is None:
            nrows = len(cols[0]) if cols else 0
        if any(len(c) != nrows for c in cols):
            raise DimensionMismatch("ragged columns")
        return cls._of(field, _transposed(cols, nrows), len(cols))

    def cols(self):
        return list(_transposed(self.rows, self.ncols))

    def transpose(self):
        return Matrix._of(self.field, _transposed(self.rows, self.ncols), self.nrows)

    def __matmul__(self, other):
        _check_fields((self, other))
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                "cannot multiply %dx%d by %dx%d" % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        field = self.field
        zero, canon = field.zero, field.canonical
        # Only the nonzero entries of the right factor take part.
        sparse = [[(j, b) for j, b in enumerate(brow) if b] for brow in other.rows]
        out = []
        for arow in self.rows:
            acc = [zero] * other.ncols
            for a, brow in zip(arow, sparse):
                if a:
                    for j, b in brow:
                        acc[j] += a * b
            out.append(tuple(canon(acc)))
        return Matrix._of(field, tuple(out), other.ncols)

    def apply(self, vec):
        """Matrix-vector product; vec is a length-ncols sequence."""
        if len(vec) != self.ncols:
            raise DimensionMismatch("vector length %d != %d columns" % (len(vec), self.ncols))
        acc = [self.field.zero] * self.nrows
        for col, x in zip(self._columns(), vec):
            if x:
                for i, a in col:
                    acc[i] += a * x
        return tuple(self.field.canonical(acc))

    def _sparse_apply(self, vec):
        """apply() from a {column: scalar} vector to one, canonicalising only the touched
        entries and dropping cancelled ones (apply()'s dense list wins on narrow rows)."""
        columns, acc = self._columns(), {}
        for j, x in vec.items():
            for i, a in columns[j]:
                acc[i] = acc.get(i, 0) + a * x
        return {i: y for i, y in zip(acc, self.field.canonical(acc.values())) if y}

    def _columns(self):
        """Each column's nonzero entries as (row, entry) pairs, built on first use."""
        if not hasattr(self, "_support"):
            self._support = [tuple([(i, a) for i, a in enumerate(c) if a]) for c in self.cols()]
        return self._support

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self is other or (
            (self.field is other.field or self.field == other.field)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        if not hasattr(self, "_hash"):
            self._hash = hash((self.field, self.nrows, self.ncols, self.rows))
        return self._hash

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return "Matrix(%s, %dx%d, [%s])" % (self.field, self.nrows, self.ncols, body)


def _check_fields(matrices):
    field = matrices[0].field
    for m in matrices:
        if m.field != field:
            raise DimensionMismatch("matrices over different fields (%s vs %s)" % (field, m.field))


def hstack(matrices):
    matrices = list(matrices)
    if not matrices:
        raise ValueError("hstack of nothing")
    _check_fields(matrices)
    nrows = matrices[0].nrows
    for m in matrices:
        if m.nrows != nrows:
            raise DimensionMismatch("hstack row counts differ")
    rows = tuple(tuple(itertools.chain.from_iterable(m.rows[i] for m in matrices)) for i in range(nrows))
    return Matrix._of(matrices[0].field, rows, sum(m.ncols for m in matrices))


def vstack(matrices):
    matrices = list(matrices)
    if not matrices:
        raise ValueError("vstack of nothing")
    _check_fields(matrices)
    ncols = matrices[0].ncols
    for m in matrices:
        if m.ncols != ncols:
            raise DimensionMismatch("vstack column counts differ")
    rows = tuple(itertools.chain.from_iterable(m.rows for m in matrices))
    return Matrix._of(matrices[0].field, rows, ncols)


def _scalar_rows(field, rows, length=None):
    """User rows as tuples of canonical scalars (ints or, over Q, Fractions), each `length` long if given."""
    rows = [list(r) for r in rows]
    allowed = (int,) if field.char else (int, Fraction)
    for x in itertools.chain.from_iterable(rows):
        if type(x) not in allowed:
            raise TypeError("%r is not a scalar of %s" % (x, field))
    for r in rows:
        if length is not None and len(r) != length:
            raise DimensionMismatch("vector length %d != ambient %d" % (len(r), length))
    return tuple(tuple(field.canonical(r)) for r in rows)


def _transposed(rows, ncols):
    """The columns of length-ncols rows, as a tuple of tuples."""
    return tuple(zip(*rows)) if rows else ((),) * ncols


def _row_reduce(field, rows, ncols, pivot_limit=None, echelon=False):
    """(reduced dict rows, pivot column list) by sparse Gauss-Jordan elimination.

    Rows go in dense or as dicts {column: nonzero canonical scalar}.  Each is
    reduced at its leading column by the pivot rows found so far, keyed by
    leading column, until it leads at a new pivot (scaled to 1), at or beyond
    `pivot_limit`, or nowhere.  Unless echelon, back substitution then clears
    each pivot row at the later pivots.  Rows come out as such dicts, as many
    as went in: the pivot rows in column order, then the rows zero left of
    `pivot_limit` (solve()'s inconsistent ones), then {} for each zero row.
    """
    if pivot_limit is None:
        pivot_limit = ncols
    canon, p = field.canonical, field.char
    pivot_rows, rest, zero_rows = {}, [], 0
    for row in rows:
        row = dict(row) if type(row) is dict else _sparse(row)
        while row:
            c = min(row)
            prow = pivot_rows.get(c)
            if prow is not None:
                _subtract(row, row[c], prow, p)
                continue
            if c >= pivot_limit:
                rest.append(row)
            else:
                inv = 1 if row[c] == 1 else field.inverse(row[c])
                pivot_rows[c] = row if inv == 1 else dict(zip(row, canon([x * inv for x in row.values()])))
            break
        else:
            zero_rows += 1
    pivots = sorted(pivot_rows)
    if not echelon:
        # A later pivot row is zero at every other pivot: one pass clears them.
        for c in reversed(pivots):
            row = pivot_rows[c]
            for k in [k for k in row if k != c and k in pivot_rows]:
                _subtract(row, row[k], pivot_rows[k], p)
    return [pivot_rows[c] for c in pivots] + rest + [{}] * zero_rows, pivots


def _subtract(row, f, prow, p):
    """row -= f * prow on dict rows, in place; entries stay canonical and nonzero."""
    for j, v in prow.items():
        x = row.get(j, 0) - f * v
        if p:
            x %= p
        elif type(x) is Fraction and x.denominator == 1:
            x = x.numerator
        row[j] = x
        if not x:
            del row[j]


def _sparse(row):
    """A dense row as a {column: nonzero scalar} dict."""
    return dict(itertools.compress(enumerate(row), row))


def _dense(row, ncols, zero):
    """A {column: scalar} row as a length-ncols tuple."""
    out = [zero] * ncols
    for j, x in row.items():
        out[j] = x
    return tuple(out)


def reduce(m):
    """Unique reduced row echelon form of a matrix; rank = pivot count."""
    red, _ = _row_reduce(m.field, m.rows, m.ncols)
    return Matrix._of(m.field, tuple(_dense(row, m.ncols, m.field.zero) for row in red), m.ncols)


def rank(m):
    _, pivots = _row_reduce(m.field, m.rows, m.ncols)
    return len(pivots)


def solve(m, rhs):
    """An exact solution x of m @ x = rhs, or None when none exists.

    rhs may have several columns; all are solved simultaneously.  Free
    variables are set to zero, so each solution column is supported on the
    pivot columns of m ("pivot-first" convention).
    """
    if m.nrows != rhs.nrows:
        raise DimensionMismatch("rhs has %d rows, matrix has %d" % (rhs.nrows, m.nrows))
    field = m.field
    aug = [r + s for r, s in zip(m.rows, rhs.rows)]
    red, pivots = _row_reduce(field, aug, m.ncols + rhs.ncols, pivot_limit=m.ncols)
    if any(red[len(pivots) :]):
        return None
    out = [(field.zero,) * rhs.ncols] * m.ncols
    for row, c in zip(red, pivots):
        out[c] = tuple(row.get(j, field.zero) for j in range(m.ncols, m.ncols + rhs.ncols))
    return Matrix._of(field, tuple(out), rhs.ncols)


class Subspace:
    """A linear subspace of k^n held as a canonical reduced basis.

    rows are the nonzero rows of the reduced row echelon form of any spanning
    set (pivot columns strictly increasing, pivot entries 1, pivot columns
    zero in the other rows), and they are the basis vectors.  That form is
    unique, so `a == b` iff the subspaces are equal; this is the equality
    every submodule comparison bottoms out in.  `basis` is the n x dim matrix
    with those vectors as columns, built on each access.
    """

    __slots__ = ("field", "ambient_dim", "rows", "pivots", "_hash")

    def __init__(self, field, ambient_dim, rows, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, field, ambient_dim, vectors, check=True):
        """Canonical subspace spanned by the given length-n vectors; check=False
        trusts them to be length-n rows of canonical scalars already."""
        vectors = _scalar_rows(field, vectors, ambient_dim) if check else vectors
        red, pivots = _row_reduce(field, vectors, ambient_dim)
        rows = tuple(_dense(row, ambient_dim, field.zero) for row in red[: len(pivots)])
        return cls(field, ambient_dim, rows, pivots)

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls.from_vectors(field, ambient_dim, [], check=False)

    @classmethod
    def full(cls, field, ambient_dim):
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim).rows, range(ambient_dim))

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def basis(self):
        return Matrix._of(self.field, _transposed(self.rows, self.ambient_dim), len(self.rows))

    def image(self, m):
        """The canonical subspace m(self) of k^(m.nrows)."""
        if m.ncols != self.ambient_dim:
            raise DimensionMismatch("vector length %d != %d columns" % (self.ambient_dim, m.ncols))
        return Subspace.from_vectors(self.field, m.nrows, self._images([m]), check=False)

    def _images(self, matrices):
        """a(u) for each matrix a and basis row u, as {column: scalar} dicts:
        for the whole space the rows are the identity, so the columns of a."""
        if self.dim == self.ambient_dim:
            return [dict(col) for a in matrices for col in a._columns()]
        rows = [_sparse(row) for row in self.rows]
        return [a._sparse_apply(row) for a in matrices for row in rows]

    def vector(self, coords):
        """The vector with the given coordinates in the canonical basis."""
        field = self.field
        acc = [field.zero] * self.ambient_dim
        for c, row in zip(coords, self.rows):
            if c:
                for j, x in enumerate(row):
                    if x:
                        acc[j] += c * x
        return tuple(field.canonical(acc))

    def coords_of(self, vec):
        """Coordinates of vec in the canonical basis, or None if outside.

        With a reduced echelon basis the candidate coordinates are just the
        entries of vec at the pivots; membership is decided by exact
        reconstruction (equivalent to the residual rank test).
        """
        vec = tuple(vec)
        if len(vec) != self.ambient_dim:
            raise DimensionMismatch("vector length %d != ambient %d" % (len(vec), self.ambient_dim))
        coords = tuple(vec[p] for p in self.pivots)
        return coords if self.vector(coords) == vec else None

    def contains(self, other):
        """Whether other is a subspace of self (same ambient space)."""
        self._check_ambient(other)
        return all(self.coords_of(c) is not None for c in other.rows)

    def sum(self, other):
        self._check_ambient(other)
        return Subspace.from_vectors(self.field, self.ambient_dim, self.rows + other.rows, check=False)

    def intersect(self, other):
        """Intersection via the kernel of [A | B], A and B the two bases."""
        self._check_ambient(other)
        stacked = Matrix._of(self.field, tuple(zip(*self.rows, *other.rows)), self.dim + other.dim)
        vecs = [self.vector(col[: self.dim]) for col in kernel(stacked).rows]
        return Subspace.from_vectors(self.field, self.ambient_dim, vecs, check=False)

    def nonpivots(self):
        """The columns that are not pivots: the standard vectors there are a
        basis of k^n / self."""
        pivots = set(self.pivots)
        return [q for q in range(self.ambient_dim) if q not in pivots]

    def projection(self):
        """The (n-dim) x n matrix of k^n -> k^n / self in that basis: it kills
        the subspace, and its non-pivot columns are the identity."""
        field, n = self.field, self.ambient_dim
        proj = []
        for q in self.nonpivots():
            row = [field.zero] * n
            row[q] = field.one
            for p, prow in zip(self.pivots, self.rows):
                if prow[q]:
                    row[p] = -prow[q]
            proj.append(tuple(field.canonical(row)))
        return Matrix._of(field, tuple(proj), n)

    def _on_lifts(self, m):
        """m on the lift of each basis vector of k^n / self to its standard
        vector: the non-pivot columns of m."""
        keep = self.nonpivots()
        return Matrix._of(m.field, tuple(tuple(row[q] for q in keep) for row in m.rows), len(keep))

    def vectors(self):
        """All vectors of the subspace; finite fields only (p^dim many)."""
        if not self.field.is_finite:
            raise FieldNotFinite("cannot enumerate a subspace over %s" % self.field.name)
        for coeffs in itertools.product(self.field.elements(), repeat=self.dim):
            yield self.vector(coeffs)

    def sort_key(self):
        """Deterministic total order key: (dim, basis entries in ambient-index-major order)."""
        sk = self.field.sort_key
        return (self.dim, tuple(sk(x) for col in zip(*self.rows) for x in col))

    def _check_ambient(self, other):
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise DimensionMismatch(
                "subspaces of different ambient spaces (%d vs %d)"
                % (self.ambient_dim, other.ambient_dim)
            )

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        same_field = self.field is other.field or self.field == other.field
        return self is other or (self.ambient_dim == other.ambient_dim and same_field and self.rows == other.rows)

    def __hash__(self):
        if not hasattr(self, "_hash"):
            self._hash = hash((self.field, self.ambient_dim, self.rows))
        return self._hash

    def __repr__(self):
        return "Subspace(dim %d of k^%d)" % (self.dim, self.ambient_dim)


def kernel(m):
    """The solution space {v : m @ v = 0} as a canonical Subspace.

    One elimination, with the columns in reverse order: each pivot row is
    then supported on its pivot and on free columns to its left, so the
    vector of free column f (1 at f, pivot entries to the right of f) has
    leading entry 1 at f and is zero at every other free column.  Those
    vectors, in increasing f, are the reduced row echelon basis as they are.
    """
    field, n = m.field, m.ncols
    last = n - 1
    red, pivots = _row_reduce(field, [r[::-1] for r in m.rows], n)
    pivset = set(pivots)
    free = [f for f in range(n) if last - f not in pivset]
    z, o = field.zero, field.one
    vecs = []
    for f in free:
        v = [z] * n
        v[f] = o
        for row, p in zip(red, pivots):
            if x := row.get(last - f):
                v[last - p] = -x
        vecs.append(tuple(field.canonical(v)))
    return Subspace(field, n, tuple(vecs), free)

