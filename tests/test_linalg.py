"""Exact linear algebra: frozen examples plus property tests."""

import operator

import pytest
from hypothesis import given, settings, strategies as st

from tracelab.errors import DimensionMismatch
from tracelab.linalg import (
    GF,
    QQ,
    Matrix,
    Subspace,
    hstack,
    kernel,
    rank,
    reduce,
    solve,
    vstack,
)
from test_homological import kron


def mat(field, rows, ncols=None):
    return Matrix.from_int_rows(field, rows, ncols=ncols)


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
    assert k.contains_vector(vec(QQ, [1, -1]))
    assert not k.contains_vector(vec(QQ, [1, 1]))


def test_kernel_vectors_satisfy_system():
    m = mat(QQ, [[1, 2, 3], [0, 1, 1]])
    k = kernel(m)
    for col in k.basis_columns():
        assert not any(m.apply(col))


# -- subspaces ----------------------------------------------------------------


def test_sum_and_intersection_of_axes():
    a = Subspace.from_vectors(QQ, 2, [vec(QQ, [1, 0])])
    b = Subspace.from_vectors(QQ, 2, [vec(QQ, [0, 1])])
    assert a.sum(b) == Subspace.full(QQ, 2)
    assert a.intersect(b).dim == 0


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


def test_quotient_maps_shapes_and_identities():
    u = Subspace.from_vectors(QQ, 3, [vec(QQ, [1, 2, 0])])
    proj, section = u.quotient_maps()
    assert (proj.nrows, proj.ncols) == (2, 3)
    assert (section.nrows, section.ncols) == (3, 2)
    assert proj @ section == Matrix.identity(QQ, 2)
    assert (proj @ u.basis).is_zero()


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
    assert kron(a, z).is_zero()


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
    return Matrix.from_int_rows(field, draw(int_rows(nrows, ncols)), ncols=ncols)


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
    for col in k.basis_columns():
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
        operator.add,
        operator.sub,
        operator.matmul,
        lambda a, b: hstack([a, b]),
        lambda a, b: vstack([a, b]),
    ],
    ids=["add", "sub", "matmul", "hstack", "vstack"],
)
def test_mixed_fields_raise(left, right, op):
    with pytest.raises(DimensionMismatch):
        op(Matrix.identity(left, 2), Matrix.identity(right, 2))


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_entries_stay_canonical_over_prime_fields(data):
    m = data.draw(field_and_matrix(field_strategy=prime_fields))
    field = m.field
    n = Matrix.from_int_rows(field, data.draw(int_rows(m.nrows, m.ncols)), ncols=m.ncols)
    proj, section = kernel(m).quotient_maps()
    results = [
        m @ n.transpose(),
        m + n,
        m - n,
        -m,
        m.scale(field.from_int(-1)),
        reduce(m),
        kernel(m).basis,
        proj,
        section,
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


def assert_trusted(result):
    """result is a tuple of canonical length-ncols tuples, as Matrix() would build it."""
    field = result.field
    assert type(result.rows) is tuple and result.nrows == len(result.rows)
    for row in result.rows:
        assert type(row) is tuple and len(row) == result.ncols
        assert all(type(x) is type(field.zero) for x in row)
        assert list(field.canonical(list(row))) == list(row)
    assert result == Matrix(field, result.rows, ncols=result.ncols)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_internal_results_are_trusted_rows(data):
    m = data.draw(field_and_matrix(field_strategy=trusted_fields))
    field = m.field
    n = Matrix.from_int_rows(field, data.draw(int_rows(m.nrows, m.ncols)), ncols=m.ncols)
    k = data.draw(st.integers(0, 4))
    results = [
        m @ n.transpose(),
        m + n,
        m - n,
        -m,
        m.scale(field.from_int(data.draw(st.integers(-4, 4)))),
        m.transpose(),
        Matrix.identity(field, k),
        Matrix.zeros(field, m.nrows, k),
        Matrix.from_cols(field, m.rows, nrows=m.ncols),
        hstack([m, n]),
        vstack([m, n]),
        reduce(m),
        kernel(m).basis,
        *kernel(m).quotient_maps(),
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
    assert space.basis_columns() == basis.cols()
    for v in vectors:
        assert space.vector(space.coords_of(v)) == v


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_image_is_the_span_of_the_mapped_basis(data):
    field = data.draw(fields)
    n, k = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    m = Matrix.from_int_rows(field, data.draw(int_rows(k, n)), ncols=n)
    vectors = [vec(field, r) for r in data.draw(int_rows(data.draw(st.integers(0, 3)), n))]
    space = Subspace.from_vectors(field, n, vectors)
    assert space.image(m) == Subspace.from_vectors(field, k, (m @ space.basis).cols())
    assert Subspace.full(field, n).image(m).dim == rank(m)
