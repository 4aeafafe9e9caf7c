"""tracelab: exact computation of trace and cotrace submodules, Ext1/Tor1,
and Matlis duality over Artinian local algebras and numerical semigroup
rings, plus executable verification suites for the theory behind them."""

__version__ = "0.1.0"

from .artin import (
    ArtinAlgebra,
    ModuleRep,
    PolynomialPresentation,
    Submodule,
    annihilator,
    build_algebra,
    colon,
    enumerate_cyclic_ideals,
    enumerate_submodules,
    free_module,
    ideal_from_elements,
    ideal_times_module,
    is_essential,
    is_small,
    minimal_generators,
    module_from_presentation,
    regular_module,
    socle,
    span_submodule,
    torsion_submodule,
)
from .homological import (
    ann_in_dual,
    coexcellence_verdict,
    cotrace,
    embed_into_injective,
    excellence_verdict,
    ext1,
    has_commutative_endomorphisms,
    hom_module,
    is_good_ideal,
    is_homothety_onto,
    is_ideal_coexcellent,
    is_ideal_excellent,
    is_quasi_frobenius,
    is_tensor_eval_injective,
    matlis_dual,
    tensor_product,
    tor1,
    trace,
    trace_via_colon,
)
from .linalg import FIELDS, GF, QQ, Matrix, Subspace, kernel, rank, reduce, solve
from .semigroup import (
    NumericalSemigroup,
    ValueSet,
    ext1_dim,
    first_neighborhood,
    first_neighborhood_inverse,
    is_dvr,
    is_good,
    make,
    matlis_report,
    maximal_ideal,
    nu_index,
    power_m,
    sumset,
    trace_value,
    v_count,
)
from .verifier import InstanceSpec, SuiteResult, default_catalog, run_suites
