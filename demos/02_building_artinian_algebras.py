#!/usr/bin/env python3
"""Building Artinian local algebras and poking at their module theory.

An algebra comes from a polynomial presentation.  The builder proves the
ideal primary to (x1..xn) before it returns: modulo m^(t+1) the relation
multiples span every monomial of some degree t (so m^t lies in I near the
origin, by Nakayama), and unreduced they span every monomial of degree D,
the nilpotency index (so m^D lies in I).  The basis is the standard
monomials, and the action matrices are re-checked exactly (commutation,
relation vanishing).
"""

from tracelab.artin import (
    PolynomialPresentation,
    annihilator,
    build_algebra,
    enumerate_cyclic_ideals,
    enumerate_submodules,
    ideal_from_elements,
    minimal_generators,
    module_from_presentation,
    regular_module,
    socle,
    torsion_submodule,
)
from tracelab.linalg import GF, QQ

# The smallest interesting non-Gorenstein example: the fat point
# k[x,y]/(x^2, xy, y^2).  Its maximal ideal *is* its socle.
fat = build_algebra(PolynomialPresentation(QQ, ["x", "y"], ["x^2", "x*y", "y^2"]))
print("basis:", fat.basis_labels)
print("dimension:", fat.dim, "| m nilpotent of index", fat.nilpotency_index)
print("socle dimension:", socle(regular_module(fat)).dim)

# Modules enter as cokernel presentations and live as action matrices.
# One generator killed by x and y is the residue field.
k = module_from_presentation(fat, [["x", "y"]])
print("residue field dim:", k.dim, "| Ann(k) has dim", annihilator(k).dim)

# A less trivial cokernel: R^2 modulo the column (x, y).
m2 = module_from_presentation(fat, [["x"], ["y"]])
print("R^2/(x,y)^T has dim", m2.dim, "and", minimal_generators(m2)[0], "generators")

# Torsion: everything the ideal kills.
ix = ideal_from_elements(fat, ["x"])
print("R[(x)] =", torsion_submodule(regular_module(fat), ix).dim, "dimensional")

# Over a finite field the ideal lattice is a finite, enumerable object.
fat2 = build_algebra(PolynomialPresentation(GF(2), ["x", "y"], ["x^2", "x*y", "y^2"]))
cyclic = enumerate_cyclic_ideals(fat2)
every = enumerate_submodules(regular_module(fat2))
print("cyclic ideals over F_2:", [i.dim for i in cyclic])
print("all ideals over F_2:  ", [i.dim for i in every])
