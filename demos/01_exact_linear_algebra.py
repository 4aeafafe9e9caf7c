#!/usr/bin/env python3
"""Tour of the exact linear algebra substrate.

Everything downstream (traces, torsion submodules, Ext groups) is decided by
equality of canonical subspace bases, so this layer has no tolerances: over
Q it computes with exact rationals, over F_p with residues.
"""

from tracelab.linalg import GF, QQ, Matrix, Subspace, kernel, rank, reduce, solve

# Exact reduced row echelon form: no pivots are ever "almost zero".
m = Matrix(QQ, [[1, 2], [2, 4]])
print("matrix:        ", m)
print("echelon form:  ", reduce(m))
print("rank:          ", rank(m))

# Solving returns an exact witness or None, never a least-squares guess.
lhs = Matrix(QQ, [[2, 1], [1, 1], [3, 2]])
rhs = Matrix(QQ, [[3], [2], [5]])
x = solve(lhs, rhs)
print("solution:      ", x)
print("reconstructs:  ", lhs @ x == rhs)
print("inconsistent:  ", solve(Matrix(QQ, [[0]]), Matrix(QQ, [[1]])))

# Subspaces are stored as the rows of their reduced row echelon form, a unique
# normal form, so structural equality decides subspace equality.
gens1 = [(QQ.from_int(1), QQ.from_int(2), QQ.from_int(0))]
gens2 = [(QQ.from_int(3), QQ.from_int(6), QQ.from_int(0))]
a = Subspace.from_vectors(QQ, 3, gens1)
b = Subspace.from_vectors(QQ, 3, gens2)
print("same line from different generators:", a == b)

# Sum and intersection satisfy the modular law exactly.
c = Subspace.from_vectors(QQ, 3, [(QQ.from_int(0), QQ.from_int(1), QQ.from_int(1))])
s, i = a.sum(c), a.intersect(c)
print("dim a + dim c =", a.dim + c.dim, "= dim(a+c) + dim(a&c) =", s.dim + i.dim)

# Over a finite field a subspace is a finite set you can walk through.
f2 = GF(2)
plane = kernel(Matrix(f2, [[1, 1, 0]]))
points = list(plane.vectors())
print("points of a plane over F_2:", len(points), "=", 2 ** plane.dim)
