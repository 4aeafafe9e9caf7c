#!/usr/bin/env python3
"""The trace of an ideal in a module, and what "excellent" means.

For an ideal I and module M the trace is the sum of the images of all maps
I -> M; it always sits between IM and the Ann(I)-torsion of M.  A module is
I-excellent when the bottom of that sandwich is the whole trace, and
excellent when that happens for every ideal.  For M = R this recovers the
classical trace-ideal story: R is excellent exactly when it is
Quasi-Frobenius (simple socle).
"""

from tracelab.artin import (
    PolynomialPresentation,
    build_algebra,
    ideal_from_elements,
    ideal_times_module,
    regular_module,
    socle,
)
from tracelab.homological import (
    excellence_verdict,
    ext1,
    is_good_ideal,
    is_homothety_onto,
    is_ideal_excellent,
    is_quasi_frobenius,
    trace,
)
from tracelab.linalg import GF


def show(name, algebra):
    reg = regular_module(algebra)
    ix = ideal_from_elements(algebra, ["x"])
    tr = trace(ix, reg)
    im = ideal_times_module(ix, reg)
    print("--", name)
    print("   socle dim:", socle(reg).dim, "| QF:", is_quasi_frobenius(algebra))
    print("   trace of (x) has dim", tr.dim, "while (x)R has dim", im.dim)
    print("   (x)-excellent:", is_ideal_excellent(ix, reg), "| (x) good:", is_good_ideal(ix))
    print("   Ext1(R/(x), R) dim:", ext1(ix, reg).dim,
          "| homothety map onto:", is_homothety_onto(ix, reg))
    verdict = excellence_verdict(reg)
    print("   excellent (%s over %d cyclic ideals): %s"
          % (verdict.evidence, verdict.tested, verdict.holds))


# Quasi-Frobenius: the dual numbers.  Every trace collapses to IM.
show("F2[x]/(x^2)", build_algebra(PolynomialPresentation(GF(2), ["x"], ["x^2"])))

# Not Quasi-Frobenius: the fat point.  The line (x) sits inside the socle,
# so its trace is the whole 2-dimensional socle and excellence fails.
show(
    "F2[x,y]/(x^2,xy,y^2)",
    build_algebra(PolynomialPresentation(GF(2), ["x", "y"], ["x^2", "x*y", "y^2"])),
)

# The maximal ideal of the fat point is an annihilator ideal, hence good,
# even though the ring is not excellent.
fat = build_algebra(PolynomialPresentation(GF(2), ["x", "y"], ["x^2", "x*y", "y^2"]))
print("-- maximal ideal of the fat point is good:", is_good_ideal(fat.max_ideal()))
