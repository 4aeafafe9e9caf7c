#!/usr/bin/env python3
"""Matlis duality as transposition, and how it swaps trace with cotrace.

Over an Artinian local k-algebra with residue field k the Matlis dual is the
k-linear dual with transposed action matrices.  The two central exchange
identities say that dualizing turns the cotrace into the annihilator of the
trace and vice versa; numerically these are exact subspace equalities.  The
same machinery computes Ext1(R/I, M) as a Hom cokernel and Tor1(M, R/I) as
a tensor kernel, and their dimensions match under duality.
"""

from tracelab.artin import (
    PolynomialPresentation,
    Submodule,
    build_algebra,
    ideal_from_elements,
    module_from_presentation,
    regular_module,
)
from tracelab.homological import (
    ann_in_dual,
    cotrace,
    embed_into_injective,
    ext1,
    matlis_dual,
    tensor_eval,
    tor1,
    trace,
    trace_via_colon,
)
from tracelab.linalg import QQ, Subspace

fat = build_algebra(PolynomialPresentation(QQ, ["x", "y"], ["x^2", "x*y", "y^2"]))
reg = regular_module(fat)
k = module_from_presentation(fat, [["x", "y"]])
ix = ideal_from_elements(fat, ["x"])

# The exchange identities, checked as exact canonical-basis equalities.
for module, name in ((reg, "R"), (k, "k")):
    dual = matlis_dual(module)
    lhs = trace(ix, dual.rep).carrier
    rhs = ann_in_dual(dual, cotrace(ix, module)).carrier
    print("trace in dual(%s) == Ann(cotrace):" % name, lhs == rhs, "| dim", lhs.dim)
    lhs2 = cotrace(ix, dual.rep).carrier
    rhs2 = ann_in_dual(dual, trace(ix, module)).carrier
    print("cotrace in dual(%s) == Ann(trace): " % name, lhs2 == rhs2, "| dim", lhs2.dim)

# Ext and Tor through the short exact routes, no resolutions anywhere.
print("Ext1(R/(x), R) dim:", ext1(ix, reg).dim)
print("Tor1(k, R/(x)) dim:", tor1(k, ix).dim)
print("dual dimension law:", ext1(ix, matlis_dual(k).rep).dim == tor1(k, ix).dim)
print("tensor evaluation injective on k?", tensor_eval(k, ix).injective)

# A second, independent route to the trace: embed M into an injective X and
# compute I(M :_X I).  Both routes must agree exactly.
X, incl = embed_into_injective(k)
member = Submodule(
    X,
    Subspace.from_vectors(QQ, X.dim, incl.cols()),
    check=False,
)
routed = trace_via_colon(member, ix)
mapped = Subspace.from_vectors(
    QQ, X.dim, [incl.apply(c) for c in trace(ix, k).carrier.rows]
)
print("colon route through X agrees with the definition:", routed.carrier == mapped)
