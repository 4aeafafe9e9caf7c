"""Exact linear algebra: frozen examples plus property tests."""

import functools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tracelab.errors import DimensionMismatch
from tracelab.linalg import (
    GF,
    QQ,
    Matrix,
    Subspace,
    _row_reduce,
    _sparse,
    hstack,
    kernel,
    rank,
    reduce,
    solve,
    vstack,
)
from tracelab.artin import PolynomialPresentation, build_algebra, ideal_from_elements, module_from_presentation, regular_module
from test_homological import kron


def mat(field, rows, ncols=None):
    return Matrix(field, rows, ncols=ncols)


def vec(field, xs):
    return tuple(field.from_int(x) for x in xs)


# -- reduce -------------------------------------------------------------------


def test_reduce_zero_matrix():
    m = Matrix.zeros(QQ, 2, 2)
    assert reduce(m) == m
    assert rank(m) == 0


def test_reduce_identity():
    m = Matrix.identity(QQ, 2)
    assert reduce(m) == m
    assert rank(m) == 2


def test_reduce_rank_one():
    # Hand Gaussian elimination: r2 -= 2*r1 leaves [[1,2],[0,0]].
    m = mat(QQ, [[1, 2], [2, 4]])
    assert reduce(m) == mat(QQ, [[1, 2], [0, 0]])
    assert rank(m) == 1


def test_reduce_normalizes_pivots():
    m = mat(QQ, [[2, 4], [1, 3]])
    assert reduce(m) == mat(QQ, [[1, 0], [0, 1]])


def test_reduce_mod_p():
    m = mat(GF(3), [[2, 1], [1, 2]])
    assert reduce(m) == mat(GF(3), [[1, 2], [0, 0]])


# -- kernel -------------------------------------------------------------------


def test_kernel_of_identity_is_zero():
    assert kernel(Matrix.identity(QQ, 3)).dim == 0


def test_kernel_of_zero_map_is_everything():
    k = kernel(Matrix.zeros(QQ, 2, 3))
    assert k == Subspace.full(QQ, 3)


def test_kernel_single_equation():
    # x + y = 0 has solution line spanned by (1, -1).
    k = kernel(mat(QQ, [[1, 1]]))
    assert k.dim == 1
    assert k.coords_of(vec(QQ, [1, -1])) is not None
    assert k.coords_of(vec(QQ, [1, 1])) is None


def test_kernel_vectors_satisfy_system():
    m = mat(QQ, [[1, 2, 3], [0, 1, 1]])
    k = kernel(m)
    for col in k.rows:
        assert not any(m.apply(col))


# -- subspaces ----------------------------------------------------------------


def test_sum_and_intersection_of_axes():
    a = Subspace.from_vectors(QQ, 2, [vec(QQ, [1, 0])])
    b = Subspace.from_vectors(QQ, 2, [vec(QQ, [0, 1])])
    assert a.sum(b) == Subspace.full(QQ, 2)
    assert a.intersect(b).dim == 0


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
@pytest.mark.parametrize("n", [0, 3])
def test_intersection_with_the_zero_space_is_zero(field, n):
    zero = Subspace.zero(field, n)
    for other in (zero, Subspace.full(field, n), Subspace.from_vectors(field, n, [vec(field, [1] * n)])):
        assert zero.intersect(other) == other.intersect(zero) == zero


def test_sum_intersect_idempotent():
    a = Subspace.from_vectors(QQ, 3, [vec(QQ, [1, 1, 0]), vec(QQ, [0, 0, 2])])
    assert a.sum(a) == a
    assert a.intersect(a) == a


def test_contains_rank_example():
    a = Subspace.from_vectors(QQ, 3, [vec(QQ, [1, 1, 0])])
    b = Subspace.from_vectors(QQ, 3, [vec(QQ, [1, 1, 0]), vec(QQ, [0, 0, 1])])
    assert b.contains(a)
    assert not a.contains(b)


def test_ambient_mismatch_raises():
    a = Subspace.full(QQ, 2)
    b = Subspace.full(QQ, 3)
    with pytest.raises(DimensionMismatch):
        a.sum(b)
    with pytest.raises(DimensionMismatch):
        a.intersect(b)
    with pytest.raises(DimensionMismatch):
        a.contains(b)


def test_canonical_form_is_representation_independent():
    gens1 = [vec(QQ, [1, 2, 0]), vec(QQ, [0, 0, 1])]
    gens2 = [vec(QQ, [2, 4, 3]), vec(QQ, [-1, -2, 1]), vec(QQ, [1, 2, 4])]
    assert Subspace.from_vectors(QQ, 3, gens1) == Subspace.from_vectors(QQ, 3, gens2)


def test_projection_kills_the_subspace_and_is_the_identity_off_the_pivots():
    u = Subspace.from_vectors(QQ, 3, [vec(QQ, [1, 2, 0])])
    proj = u.projection()
    assert (proj.nrows, proj.ncols) == (2, 3)
    assert u.nonpivots() == [1, 2]
    assert u._on_lifts(proj) == Matrix.identity(QQ, 2)
    assert proj @ u.basis == Matrix.zeros(QQ, 2, 1)


def test_subspace_enumeration_count():
    f = GF(2)
    s = Subspace.from_vectors(f, 3, [vec(f, [1, 0, 1]), vec(f, [0, 1, 0])])
    pts = set(s.vectors())
    assert len(pts) == 4
    assert tuple([f.zero] * 3) in pts


# -- solve ----------------------------------------------------------------


def test_solve_identity_returns_rhs():
    rhs = mat(QQ, [[3], [5]])
    assert solve(Matrix.identity(QQ, 2), rhs) == rhs


def test_solve_underdetermined_pivot_first():
    # One equation x + y = 3; free variable y is set to 0.
    x = solve(mat(QQ, [[1, 1]]), mat(QQ, [[3]]))
    assert x == mat(QQ, [[3], [0]])


def test_solve_inconsistent_is_none():
    assert solve(mat(QQ, [[0]]), mat(QQ, [[1]])) is None


def test_solve_verifies_exactly():
    m = mat(QQ, [[2, 1], [1, 1], [3, 2]])
    rhs = mat(QQ, [[3], [2], [5]])
    x = solve(m, rhs)
    assert m @ x == rhs


# -- kron ----------------------------------------------------------------
# The library has no Kronecker product; these pin the oracle that
# test_homological builds the Kronecker tensor quotient with.


def test_kron_identities():
    i2 = Matrix.identity(QQ, 2)
    assert kron(i2, i2) == Matrix.identity(QQ, 4)


def test_kron_with_zero():
    a = mat(QQ, [[1, 2], [3, 4]])
    z = Matrix.zeros(QQ, 2, 2)
    assert kron(a, z) == Matrix.zeros(QQ, 4, 4)


def test_kron_scalar_blowup():
    a = mat(QQ, [[2]])
    assert kron(a, Matrix.identity(QQ, 2)) == mat(QQ, [[2, 0], [0, 2]])


def test_kron_shape():
    a = Matrix.zeros(QQ, 2, 3)
    b = Matrix.zeros(QQ, 4, 5)
    k = kron(a, b)
    assert (k.nrows, k.ncols) == (8, 15)


def test_kron_entries_canonical_over_prime_field():
    b = mat(GF(3), [[1, 2]])
    assert kron(b, b) == mat(GF(3), [[1, 2, 2, 1]])


# -- property tests ----------------------------------------------------------

fields = st.sampled_from([QQ, GF(2), GF(3), GF(5)])
prime_fields = st.sampled_from([GF(2), GF(3), GF(5)])


def int_rows(nrows, ncols):
    return st.lists(
        st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
        min_size=nrows,
        max_size=nrows,
    )


@st.composite
def field_and_matrix(draw, max_dim=4, field_strategy=fields):
    field = draw(field_strategy)
    nrows = draw(st.integers(0, max_dim))
    ncols = draw(st.integers(0, max_dim))
    return Matrix(field, draw(int_rows(nrows, ncols)), ncols=ncols)


@given(field_and_matrix())
@settings(max_examples=120, deadline=None)
def test_reduce_is_idempotent(m):
    r = reduce(m)
    assert reduce(r) == r


@given(field_and_matrix())
@settings(max_examples=120, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + kernel(m).dim == m.ncols


@given(field_and_matrix())
@settings(max_examples=100, deadline=None)
def test_kernel_is_annihilated(m):
    k = kernel(m)
    zero = tuple([m.field.zero] * m.nrows)
    for col in k.rows:
        assert m.apply(col) == zero


@st.composite
def two_subspaces(draw, ambient=4):
    field = draw(fields)
    def vecs():
        n = draw(st.integers(0, 3))
        return [
            tuple(field.from_int(draw(st.integers(-3, 3))) for _ in range(ambient))
            for _ in range(n)
        ]
    return (
        Subspace.from_vectors(field, ambient, vecs()),
        Subspace.from_vectors(field, ambient, vecs()),
    )


@given(two_subspaces())
@settings(max_examples=120, deadline=None)
def test_modular_law(pair):
    a, b = pair
    s = a.sum(b)
    i = a.intersect(b)
    assert s.dim + i.dim == a.dim + b.dim
    assert s.contains(a) and s.contains(b)
    assert a.contains(i) and b.contains(i)


@given(two_subspaces())
@settings(max_examples=120, deadline=None)
def test_equality_iff_mutual_containment(pair):
    a, b = pair
    assert (a == b) == (a.contains(b) and b.contains(a))


@given(field_and_matrix(max_dim=3))
@settings(max_examples=60, deadline=None)
def test_column_space_dim_is_rank(m):
    assert Subspace.from_vectors(m.field, m.nrows, m.cols()).dim == rank(m)


def test_subspace_cardinality_over_f3():
    f = GF(3)
    s = Subspace.from_vectors(f, 4, [vec(f, [1, 0, 2, 0]), vec(f, [0, 1, 1, 1])])
    assert len(set(s.vectors())) == 3 ** s.dim


def test_stack_helpers():
    a = mat(QQ, [[1], [2]])
    b = mat(QQ, [[3], [4]])
    assert hstack([a, b]) == mat(QQ, [[1, 3], [2, 4]])
    assert vstack([a, b]) == mat(QQ, [[1], [2], [3], [4]])


@pytest.mark.parametrize("left, right", [(GF(2), GF(3)), (QQ, GF(5)), (GF(3), QQ)])
@pytest.mark.parametrize(
    "op",
    [
        operator.matmul,
        lambda a, b: hstack([a, b]),
        lambda a, b: vstack([a, b]),
    ],
    ids=["matmul", "hstack", "vstack"],
)
def test_mixed_fields_raise(left, right, op):
    with pytest.raises(DimensionMismatch):
        op(Matrix.identity(left, 2), Matrix.identity(right, 2))


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_entries_stay_canonical_over_prime_fields(data):
    m = data.draw(field_and_matrix(field_strategy=prime_fields))
    field = m.field
    n = Matrix(field, data.draw(int_rows(m.nrows, m.ncols)), ncols=m.ncols)
    results = [
        m @ n.transpose(),
        reduce(m),
        kernel(m).basis,
        kernel(m).projection(),
        kernel(m)._on_lifts(m),
        Matrix(field, [n.apply(r) for r in m.rows], ncols=m.nrows),
    ]
    x = solve(m, n)
    if x is not None:
        results.append(x)
    for result in results:
        for row in result.rows:
            assert all(type(v) is int and 0 <= v < field.char for v in row), result


# -- the trusted constructor and the row-major subspace ------------------------

trusted_fields = st.sampled_from([QQ, GF(2), GF(3)])


def is_canonical_scalar(field, x):
    """An int in [0, p) over F_p; over Q an int, or a Fraction that is not one."""
    if field.char:
        return type(x) is int and 0 <= x < field.char
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def assert_trusted(result):
    """result is a tuple of canonical length-ncols tuples, as Matrix() would build it."""
    field = result.field
    assert type(result.rows) is tuple and result.nrows == len(result.rows)
    for row in result.rows:
        assert type(row) is tuple and len(row) == result.ncols
        assert all(is_canonical_scalar(field, x) for x in row)
        assert list(field.canonical(list(row))) == list(row)
    assert result == Matrix(field, result.rows, ncols=result.ncols)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_internal_results_are_trusted_rows(data):
    m = data.draw(field_and_matrix(field_strategy=trusted_fields))
    field = m.field
    n = Matrix(field, data.draw(int_rows(m.nrows, m.ncols)), ncols=m.ncols)
    k = data.draw(st.integers(0, 4))
    results = [
        m @ n.transpose(),
        m.transpose(),
        Matrix.identity(field, k),
        Matrix.zeros(field, m.nrows, k),
        Matrix.from_cols(field, m.rows, nrows=m.ncols),
        hstack([m, n]),
        vstack([m, n]),
        reduce(m),
        kernel(m).basis,
        kernel(m).projection(),
        kernel(m)._on_lifts(m),
    ]
    x = solve(m, n)
    if x is not None:
        results.append(x)
    for result in results:
        assert_trusted(result)


def column_echelon_oracle(field, n, vectors):
    """(basis, sort key) as the subspace used to build them: the nonzero rows
    of the reduced row echelon form, written as the columns of an n x dim
    matrix."""
    red = [r for r in reduce(Matrix(field, vectors, ncols=n)).rows if any(r)]
    basis = Matrix(field, [[r[i] for r in red] for i in range(n)], ncols=len(red))
    return basis, (len(red), tuple(field.sort_key(x) for row in basis.rows for x in row))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_subspace_rows_match_the_column_echelon_basis(data):
    field = data.draw(fields)
    n = data.draw(st.integers(0, 5))
    vectors = [vec(field, r) for r in data.draw(int_rows(data.draw(st.integers(0, 5)), n))]
    space = Subspace.from_vectors(field, n, vectors)
    basis, key = column_echelon_oracle(field, n, vectors)
    assert space.basis == basis
    assert space.sort_key() == key
    assert list(space.rows) == basis.cols()
    for v in vectors:
        assert space.vector(space.coords_of(v)) == v


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_image_is_the_span_of_the_mapped_basis(data):
    field = data.draw(fields)
    n, k = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    m = Matrix(field, data.draw(int_rows(k, n)), ncols=n)
    vectors = [vec(field, r) for r in data.draw(int_rows(data.draw(st.integers(0, 3)), n))]
    space = Subspace.from_vectors(field, n, vectors)
    assert space.image(m) == Subspace.from_vectors(field, k, (m @ space.basis).cols())
    assert Subspace.full(field, n).image(m).dim == rank(m)


def test_image_refuses_a_map_of_another_width():
    # The whole space maps by reading columns, so its width is checked up front.
    m = mat(GF(3), [[1, 0, 2]])
    for space in (Subspace.full(GF(3), 2), Subspace.from_vectors(GF(3), 2, [vec(GF(3), [1, 1])])):
        with pytest.raises(DimensionMismatch):
            space.image(m)


# -- constructors canonicalise and validate -----------------------------------


def test_matrix_constructor_reduces_residues():
    assert Matrix(GF(2), [[3, 1]]) == Matrix(GF(2), [[1, 1]])
    assert Matrix(GF(2), [[3, 1]]).rows == ((1, 1),)


def test_from_vectors_reduces_residues():
    assert Subspace.from_vectors(GF(3), 2, [(1, 4)]) == Subspace.from_vectors(GF(3), 2, [(1, 1)])


def test_constructors_reject_inexact_scalars():
    with pytest.raises(TypeError):
        Matrix(QQ, [[0.5]])
    with pytest.raises(TypeError):
        reduce(Matrix(QQ, [[2.0, 1]]))
    with pytest.raises(TypeError):
        Subspace.from_vectors(QQ, 2, [(2.0, 1)])
    with pytest.raises(TypeError):
        Matrix(GF(3), [[Fraction(1, 2)]])
    assert Matrix(QQ, [[Fraction(4, 2), Fraction(1, 2)]]).rows == ((2, Fraction(1, 2)),)
    assert type(Matrix(QQ, [[Fraction(4, 2)]]).rows[0][0]) is int


# -- kernel from one elimination ----------------------------------------------


def dense_rows(rows, ncols):
    """_row_reduce's {column: scalar} rows as the dense lists the oracles read."""
    out = []
    for row in rows:
        out.append(dense := [0] * ncols)
        for j, x in row.items():
            dense[j] = x
    return out


def assert_sparse_rows(field, rows, ncols):
    """Dict rows keyed inside range(ncols), with canonical nonzero values."""
    for row in rows:
        assert type(row) is dict and all(j in range(ncols) for j in row), row
        assert all(x and is_canonical_scalar(field, x) for x in row.values()), row


def two_elimination_kernel(m):
    """The kernel as it was computed before: the free-column vectors of the
    reduced form of m, put through a second elimination."""
    field = m.field
    red, pivots = _row_reduce(field, m.rows, m.ncols)
    red = dense_rows(red, m.ncols)
    pivset = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivset]
    z, o = field.zero, field.one
    vecs = []
    for f in free:
        v = [z] * m.ncols
        v[f] = o
        for i, p in enumerate(pivots):
            x = red[i][f]
            if x:
                v[p] = -x
        vecs.append(field.canonical(v))
    return Subspace.from_vectors(field, m.ncols, vecs)


def assert_kernel_matches_oracle(m):
    k, oracle = kernel(m), two_elimination_kernel(m)
    assert k == oracle
    assert k.pivots == oracle.pivots
    assert all(is_canonical_scalar(m.field, x) for row in k.rows for x in row)


@given(field_and_matrix(max_dim=5))
@settings(max_examples=200, deadline=None)
def test_kernel_matches_the_two_elimination_kernel(m):
    assert_kernel_matches_oracle(m)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=repr)
@pytest.mark.parametrize(
    "rows, ncols",
    [
        ([], 0),
        ([], 3),
        ([[], []], 0),
        ([[0, 0, 0], [0, 0, 0]], 3),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3),
        ([[1, 2, 3], [0, 1, 4]], 3),
        ([[0, 2, 1, 0], [1, 0, 0, 1]], 4),
    ],
    ids=["empty", "no-rows", "no-columns", "zero", "identity", "full-rank", "pivots-right"],
)
def test_kernel_corners_match_the_two_elimination_kernel(field, rows, ncols):
    assert_kernel_matches_oracle(mat(field, rows, ncols=ncols))


# -- Q scalars: ints when integral, against a Fraction-only reference ---------


def fraction_rref(rows, ncols, pivot_limit=None):
    """Reference Gauss-Jordan with every entry a Fraction: (rows, pivots)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols if pivot_limit is None else pivot_limit):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def fraction_span(vectors, n):
    rows, pivots = fraction_rref(vectors, n)
    return rows[: len(pivots)]


def fraction_kernel(rows, n):
    red, pivots = fraction_rref(rows, n)
    vecs = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        vecs.append(v)
    return vecs


def fraction_matmul(a, b, ncols):
    return [[sum((x * row[j] for x, row in zip(arow, b)), Fraction(0)) for j in range(ncols)] for arow in a]


def same_values(result, reference):
    return [list(r) for r in result] == [list(r) for r in reference]


def assert_exact(field, rows):
    for row in rows:
        assert all(is_canonical_scalar(field, x) for x in row), row


q_scalars = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([1, -1, Fraction(4, 2), Fraction(-6, 3), Fraction(1, 2), Fraction(-2, 3)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def q_rows(draw, nrows, ncols):
    rows = [[draw(q_scalars) for _ in range(ncols)] for _ in range(nrows)]
    if len(rows) >= 2 and draw(st.booleans()):
        # A dependent row, so singular matrices are common.
        a, b = draw(q_scalars), draw(q_scalars)
        rows[draw(st.integers(0, len(rows) - 1))] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_q_results_match_a_fraction_only_reference(data):
    nrows, ncols, k = (data.draw(st.integers(0, 4)) for _ in range(3))
    a_rows = data.draw(q_rows(nrows, ncols))
    b_rows = data.draw(q_rows(ncols, k))
    rhs_rows = data.draw(q_rows(nrows, k))
    a, b, rhs = Matrix(QQ, a_rows, ncols=ncols), Matrix(QQ, b_rows, ncols=k), Matrix(QQ, rhs_rows, ncols=k)
    for m in (a, b, rhs):
        assert_exact(QQ, m.rows)

    red, pivots = fraction_rref(a_rows, ncols)
    r = reduce(a)
    assert same_values(r.rows, red)
    assert_exact(QQ, r.rows)

    ker = kernel(a)
    assert same_values(ker.rows, fraction_span(fraction_kernel(a_rows, ncols), ncols))
    assert_exact(QQ, ker.rows)

    prod = a @ b
    assert same_values(prod.rows, fraction_matmul(a_rows, b_rows, k))
    assert_exact(QQ, prod.rows)

    for v in b.transpose().rows:
        image = a.apply(v)
        assert list(image) == [row[0] for row in fraction_matmul(a_rows, [[x] for x in v], 1)]
        assert_exact(QQ, [image])

    x = solve(a, rhs)
    aug, aug_pivots = fraction_rref([r + s for r, s in zip(a_rows, rhs_rows)], ncols + k, ncols)
    consistent = all(not any(row[ncols:]) for row in aug[len(aug_pivots) :])
    if not consistent:
        assert x is None
    else:
        expected = [[Fraction(0)] * k for _ in range(ncols)]
        for row, p in zip(aug, aug_pivots):
            expected[p] = row[ncols:]
        assert x is not None and same_values(x.rows, expected)
        assert_exact(QQ, x.rows)

    u = Subspace.from_vectors(QQ, ncols, a_rows)
    w = Subspace.from_vectors(QQ, ncols, b.transpose().rows)
    assert same_values(u.rows, red[: len(pivots)])
    s = u.sum(w)
    assert same_values(s.rows, fraction_span(list(u.rows) + list(w.rows), ncols))
    meet = u.intersect(w)
    if u.dim and w.dim:
        # x = sum c_i u_i for each (c, d) with sum c_i u_i + sum d_j w_j = 0.
        stacked = [list(col) for col in zip(*u.rows, *w.rows)]
        coeffs = fraction_kernel(stacked, u.dim + w.dim)
        meet_vectors = [fraction_matmul([c[: u.dim]], u.rows, ncols)[0] for c in coeffs]
        assert same_values(meet.rows, fraction_span(meet_vectors, ncols))
    else:
        assert meet.dim == 0
    for space in (u, s, meet):
        assert_exact(QQ, space.rows)
    for v in a.rows + b.transpose().rows:
        coords = u.coords_of(v)
        inside = len(fraction_span(list(u.rows) + [v], ncols)) == u.dim
        assert (coords is not None) == inside
        if inside:
            assert fraction_matmul([coords], u.rows, ncols)[0] == list(v)
            assert_exact(QQ, [coords])


# -- the sparse elimination core against the dense one it replaced -----------


def dense_row_reduce(field, rows, ncols, pivot_limit=None, echelon=False):
    """(reduced row lists, pivot column list) by dense Gauss-Jordan elimination:
    the body _row_reduce had before it became sparse, kept as its oracle.

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


def oracle_span(field, rows, ncols):
    """The reduced row echelon basis of the span of rows, by the dense oracle."""
    red, pivots = dense_row_reduce(field, rows, ncols)
    return red[: len(pivots)]


@st.composite
def mostly_zero_rows(draw, field, nrows, ncols):
    """Canonical rows, half their entries zero, some rows zero or repeated."""
    if field.char:
        nonzero = st.integers(1, field.char - 1)
    else:
        nonzero = q_scalars.filter(bool).map(lambda x: QQ.canonical([x])[0])
    entry = st.one_of(st.just(0), nonzero)
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(nrows):
        kind = draw(st.sampled_from(["as drawn", "as drawn", "zero", "repeat"]))
        if kind == "zero":
            rows[i] = [0] * ncols
        elif kind == "repeat" and i:
            rows[i] = list(rows[draw(st.integers(0, i - 1))])
    return rows


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_sparse_core_matches_the_dense_oracle(data):
    field = data.draw(fields)
    nrows, ncols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    rows = data.draw(mostly_zero_rows(field, nrows, ncols))
    limit = data.draw(st.one_of(st.none(), st.integers(0, ncols)))
    echelon = data.draw(st.booleans())
    # The core takes dense rows and {column: scalar} rows alike, and changes neither.
    as_dicts = data.draw(st.booleans())
    given_rows = [{j: x for j, x in enumerate(r) if x} for r in rows] if as_dicts else rows
    before = [dict(r) if type(r) is dict else list(r) for r in given_rows]
    red, pivots = _row_reduce(field, given_rows, ncols, pivot_limit=limit, echelon=echelon)
    assert given_rows == before
    oracle, oracle_pivots = dense_row_reduce(field, rows, ncols, pivot_limit=limit, echelon=echelon)

    assert pivots == oracle_pivots
    assert len(red) == len(oracle) == nrows
    assert_sparse_rows(field, red, ncols)
    red = dense_rows(red, ncols)
    assert_exact(field, red)
    left, k = (ncols if limit is None else limit), len(pivots)
    for row, c in zip(red, pivots):
        assert row[c] == 1 and not any(row[:c])
    # Then the rows zero left of the limit, nonzero ones before zero ones.
    assert all(not any(row[:left]) for row in red[k:])
    nonzero = [any(row) for row in red[k:]]
    assert nonzero == sorted(nonzero, reverse=True)
    assert oracle_span(field, red, ncols) == oracle_span(field, rows, ncols)
    assert oracle_span(field, red[k:], ncols) == oracle_span(field, oracle[k:], ncols)
    if echelon:
        return
    if left == ncols:
        assert red == oracle
    # Left of the limit the reduced rows are equal; beyond it they can differ
    # only by the span of the rows that are zero left of it.
    leftover = oracle_span(field, oracle[k:], ncols)
    for row, expected in zip(red[:k], oracle[:k]):
        assert row[:left] == expected[:left]
        diff = field.canonical([a - b for a, b in zip(row, expected)])
        assert oracle_span(field, leftover + [diff], ncols) == leftover


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=repr)
@pytest.mark.parametrize(
    "rows, ncols, limit, pivots, leftover",
    [
        ([], 0, None, [], 0),
        ([], 3, 2, [], 0),
        ([[], []], 0, None, [], 0),
        ([[0, 0, 0], [0, 0, 0]], 3, None, [], 0),
        ([[1, 1, 0], [1, 1, 1], [0, 0, 0]], 3, 2, [0], 1),
        ([[0, 1, 1], [0, 1, 0], [1, 0, 0]], 3, 3, [0, 1, 2], 0),
    ],
    ids=["empty", "no-rows", "no-columns", "zero", "inconsistent", "permuted"],
)
def test_sparse_core_keeps_every_row(field, rows, ncols, limit, pivots, leftover):
    red, got = _row_reduce(field, [vec(field, r) for r in rows], ncols, pivot_limit=limit)
    assert got == pivots and len(red) == len(rows)
    assert_sparse_rows(field, red, ncols)
    red = dense_rows(red, ncols)
    zero_rows = len(rows) - len(pivots) - leftover
    assert [any(row) for row in red[len(pivots) :]] == [True] * leftover + [False] * zero_rows


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_apply_matches_a_dense_product_and_leaves_equality_alone(data):
    m = data.draw(field_and_matrix(max_dim=5))
    field = m.field
    twin = Matrix(field, m.rows, ncols=m.ncols)
    first_hash = hash(twin)
    for _ in range(3):
        v = vec(field, data.draw(st.lists(st.integers(-4, 4), min_size=m.ncols, max_size=m.ncols)))
        product = field.canonical([sum((a * x for a, x in zip(row, v)), field.zero) for row in m.rows])
        assert m.apply(v) == tuple(product)
        assert_exact(field, [m.apply(v)])
    assert m == twin and twin == m
    assert hash(m) == hash(twin) == first_hash == hash(Matrix(field, m.rows, ncols=m.ncols))
    assert len({m, twin}) == 1


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_sparse_apply_matches_apply(data):
    # Over Q the entries include Fractions, so sums can cancel or turn integral.
    field = data.draw(fields)
    nrows, ncols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    m = Matrix(field, data.draw(mostly_zero_rows(field, nrows, ncols)), ncols=ncols)
    (v,) = data.draw(mostly_zero_rows(field, 1, ncols))
    given_vec = _sparse(v)
    got = m._sparse_apply(given_vec)
    assert given_vec == _sparse(v)
    assert_sparse_rows(field, [got], nrows)
    assert dense_rows([got], nrows) == [list(m.apply(v))]


@functools.cache
def orbit_modules():
    """Regular, cokernel and ideal modules over Q (y^3 = x^2/2 puts a Fraction
    in an action), F2, F3 and F5."""
    modules = []
    for field, relations in [
        ("Q", ["x^2 - 2*y^3", "x^3"]),
        ("F2", ["x^3", "y^2"]),
        ("F3", ["x^2", "x*y", "y^3"]),
        ("F5", ["x^2 - y^2", "x*y"]),
    ]:
        R = build_algebra(PolynomialPresentation(field, ["x", "y"], relations))
        cokernel = module_from_presentation(R, [["x", "0"], ["y", "x"]])
        modules += [regular_module(R), cokernel, ideal_from_elements(R, ["y"]).as_module()]
    return modules


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_orbit_matches_orbit(data):
    module = data.draw(st.sampled_from(orbit_modules()))
    field = module.algebra.field
    (v,) = data.draw(mostly_zero_rows(field, 1, module.dim))
    got = module._sparse_orbit(_sparse(v))
    assert_sparse_rows(field, got, module.dim)
    assert [tuple(row) for row in dense_rows(got, module.dim)] == module.orbit(v)


@given(field_and_matrix(max_dim=5))
@settings(max_examples=100, deadline=None)
def test_kept_hashes_agree_with_fresh_ones(m):
    space = Subspace.from_vectors(m.field, m.ncols, m.rows)
    twin = Subspace.from_vectors(m.field, m.ncols, list(reversed(m.rows)))
    assert hash(space) == hash(space) == hash(twin) and space == twin
    assert hash(m) == hash(m.transpose().transpose())
