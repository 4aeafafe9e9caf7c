"""Exact dense linear algebra over Q and the prime fields F_2, F_3, F_5.

Every higher-level equality in this package (equality of submodules, traces,
torsion subspaces, ...) reduces to structural equality of canonical subspace
bases computed here, so all arithmetic is exact.  Over Q a scalar is a plain
int when integral and a fractions.Fraction otherwise; over F_p it is a plain
int in [0, p).  So each value has one representation, and most Q entries
(monomial algebras act by 0/1 matrices) never leave int arithmetic.

Scalars use Python's own arithmetic.  Each field owns one normalising hook,
`canonical(row)`, mapping freshly computed scalars to canonical
representatives (x % p over F_p; an integral Fraction to its int over Q).
Every operation here applies it once per row it produces, and elimination
demotes each entry it updates, so every stored entry and returned vector is
canonical and structural equality is value equality.

Everything is row-major.  Matrices are dense and immutable tuples of row
tuples; the public constructors canonicalise their input and reject any
scalar but an int or, over Q, a Fraction.  Every result computed here takes
the trusted path Matrix._of, which stores rows that are already a tuple of
equal-length canonical tuples.  A Subspace holds the rows of its reduced row
echelon basis, exactly as the elimination returns them; that form is unique
per subspace, so structural equality of Subspace values decides equality of
subspaces, and the column basis matrix is only built on demand.
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
    value (field included), so canonical forms can be deduplicated.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

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

    @classmethod
    def from_int_rows(cls, field, rows, ncols=None):
        conv = field.from_int
        return cls(field, [[conv(x) for x in r] for r in rows], ncols=ncols)

    def cols(self):
        return list(_transposed(self.rows, self.ncols))

    def transpose(self):
        return Matrix._of(self.field, _transposed(self.rows, self.ncols), self.nrows)

    def __add__(self, other):
        self._check_same_shape(other)
        canon = self.field.canonical
        rows = [canon([a + b for a, b in zip(ra, rb)]) for ra, rb in zip(self.rows, other.rows)]
        return Matrix._of(self.field, tuple(map(tuple, rows)), self.ncols)

    def __sub__(self, other):
        self._check_same_shape(other)
        canon = self.field.canonical
        rows = [canon([a - b for a, b in zip(ra, rb)]) for ra, rb in zip(self.rows, other.rows)]
        return Matrix._of(self.field, tuple(map(tuple, rows)), self.ncols)

    def __neg__(self):
        canon = self.field.canonical
        rows = [canon([-a for a in r]) for r in self.rows]
        return Matrix._of(self.field, tuple(map(tuple, rows)), self.ncols)

    def scale(self, s):
        canon = self.field.canonical
        rows = [canon([s * a for a in r]) for r in self.rows]
        return Matrix._of(self.field, tuple(map(tuple, rows)), self.ncols)

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
        zero = self.field.zero
        support = [(j, x) for j, x in enumerate(vec) if x]
        out = []
        for row in self.rows:
            acc = zero
            for j, x in support:
                a = row[j]
                if a:
                    acc += a * x
            out.append(acc)
        return tuple(self.field.canonical(out))

    def is_zero(self):
        return not any(any(r) for r in self.rows)

    def _check_same_shape(self, other):
        _check_fields((self, other))
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("shape mismatch")

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, self.rows))

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


def _scalar_rows(field, rows):
    """User rows as tuples of canonical scalars: ints or, over Q, Fractions."""
    rows = [list(r) for r in rows]
    allowed = (int,) if field.char else (int, Fraction)
    for x in itertools.chain.from_iterable(rows):
        if type(x) not in allowed:
            raise TypeError("%r is not a scalar of %s" % (x, field))
    return tuple(tuple(field.canonical(r)) for r in rows)


def _transposed(rows, ncols):
    """The columns of length-ncols rows, as a tuple of tuples."""
    return tuple(zip(*rows)) if rows else ((),) * ncols


def _row_reduce(field, rows, ncols, pivot_limit=None, echelon=False):
    """(reduced row lists, pivot column list) by Gauss-Jordan elimination.

    The first len(pivots) rows are the nonzero rows of the reduced echelon
    form; any remaining rows are zero in the first `pivot_limit` columns (they
    can be nonzero beyond it, which is exactly what solve() needs for its
    consistency test).  With echelon, only the rows below each pivot are
    cleared, which leaves a row echelon form without back substitution.
    """
    if pivot_limit is None:
        pivot_limit = ncols
    one, canon, p = field.one, field.canonical, field.char
    rows = [list(r) for r in rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(pivot_limit):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        if prow[c] != one:
            inv = field.inverse(prow[c])
            prow[c:] = canon([x * inv if x else x for x in prow[c:]])
        # Entries left of c are zero in the pivot row.
        support = [(j, prow[j]) for j in range(c, ncols) if prow[j]]
        for i in range(r + 1 if echelon else 0, nrows):
            row = rows[i]
            f = row[c]
            if not f or i == r:
                continue
            # Only the entries on the pivot row's support change, and each
            # one updated is made canonical again.
            if p:
                for j, v in support:
                    row[j] = (row[j] - f * v) % p
            else:
                for j, v in support:
                    x = row[j] - f * v
                    row[j] = x.numerator if type(x) is Fraction and x.denominator == 1 else x
        pivots.append(c)
        r += 1
    return rows, pivots


def reduce(m):
    """Unique reduced row echelon form of a matrix; rank = pivot count."""
    red, _ = _row_reduce(m.field, m.rows, m.ncols)
    return Matrix._of(m.field, tuple(map(tuple, red)), m.ncols)


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
    if not aug:
        return Matrix.zeros(field, m.ncols, rhs.ncols)
    red, pivots = _row_reduce(field, aug, m.ncols + rhs.ncols, pivot_limit=m.ncols)
    for i in range(len(pivots), len(red)):
        if any(red[i][m.ncols:]):
            return None
    out = [(field.zero,) * rhs.ncols] * m.ncols
    for i, c in enumerate(pivots):
        out[c] = tuple(red[i][m.ncols :])
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

    __slots__ = ("field", "ambient_dim", "rows", "pivots")

    def __init__(self, field, ambient_dim, rows, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, field, ambient_dim, vectors):
        """Canonical subspace spanned by the given length-n vectors."""
        vectors = _scalar_rows(field, vectors)
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch("vector length %d != ambient %d" % (len(v), ambient_dim))
        red, pivots = _row_reduce(field, vectors, ambient_dim)
        return cls(field, ambient_dim, tuple(map(tuple, red[: len(pivots)])), pivots)

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls.from_vectors(field, ambient_dim, [])

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
        return Subspace.from_vectors(self.field, m.nrows, [m.apply(row) for row in self.rows])

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

    def contains_vector(self, vec):
        return self.coords_of(vec) is not None

    def contains(self, other):
        """Whether other is a subspace of self (same ambient space)."""
        self._check_ambient(other)
        return all(self.contains_vector(c) for c in other.rows)

    def sum(self, other):
        self._check_ambient(other)
        return Subspace.from_vectors(self.field, self.ambient_dim, self.rows + other.rows)

    def intersect(self, other):
        """Intersection via the kernel of [A | B], A and B the two bases."""
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        stacked = Matrix._of(self.field, tuple(zip(*self.rows, *other.rows)), self.dim + other.dim)
        vecs = [self.vector(col[: self.dim]) for col in kernel(stacked).rows]
        return Subspace.from_vectors(self.field, self.ambient_dim, vecs)

    def quotient_maps(self):
        """(proj, section) matrices realizing k^n -> k^n / self.

        proj is (n-dim) x n, section is n x (n-dim); proj @ section is the
        identity and proj kills the subspace.  The section lifts quotient
        basis vectors to the ambient standard basis vectors at non-pivot
        columns.
        """
        field = self.field
        n = self.ambient_dim
        pivset = set(self.pivots)
        nonpivots = [q for q in range(n) if q not in pivset]
        z, o = field.zero, field.one
        proj = []
        for q in nonpivots:
            row = [z] * n
            row[q] = o
            for p, prow in zip(self.pivots, self.rows):
                if prow[q]:
                    row[p] = -prow[q]
            proj.append(tuple(field.canonical(row)))
        section = tuple(tuple(o if q == t else z for t in nonpivots) for q in range(n))
        return Matrix._of(field, tuple(proj), n), Matrix._of(field, section, len(nonpivots))

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
        same_space = self.ambient_dim == other.ambient_dim and self.field == other.field
        return same_space and self.rows == other.rows

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.rows))

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
            x = row[last - f]
            if x:
                v[last - p] = -x
        vecs.append(tuple(field.canonical(v)))
    return Subspace(field, n, tuple(vecs), free)

