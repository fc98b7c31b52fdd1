"""Exact-arithmetic workbench for Lie (super)bialgebras and their twists.

The package builds finite-dimensional Lie superalgebras from structure
constants with symbolic parameter coefficients, verifies graded Jacobi
identities, analyses classical r-matrices (Yang-Baxter equations, cobrackets,
dual algebras), computes low-degree Chevalley-Eilenberg cohomology with an
exact coboundary solver, and constructs truncated enveloping-algebra twists
with their R-matrices and classical limits.  All arithmetic is exact.
"""

from .scalars import (
    Poly,
    RatFunc,
    TruncationOrder,
    UnsupportedInputError,
    param,
)
from .liealg import (
    Element,
    GradedBasis,
    LieSuperAlgebra,
    Tensor,
    otimes,
    pencil,
    wedge,
)
from .bialgebra import (
    adjoint_twist_r,
    check_cybe,
    check_invariant,
    check_mcybe,
    cobracket_from_r,
    decompose_check,
    dual_algebra,
    limit_r,
    proportionality_constant,
    schouten,
)
from .cohomology import (
    Cochain1,
    Cochain2,
    CoboundaryOutcome,
    cocycle2_witness,
    compare_cochain2,
    compatible_pair,
    d1,
    h2_dim,
    is_cocycle2,
    solve_coboundary,
)
from .catalog import (
    catalog_entries,
    catalog_entry,
    catalog_get,
    catalog_names,
    make_borel,
    make_double_pieces,
    make_dual_jordanian,
    make_dual_standard,
    make_gl,
    make_mu_prime,
    make_osp12,
    make_rborel,
    make_rdj,
    make_rfull,
    make_rjordan,
    make_sl,
    mu_prime_transcription,
)
from .enveloping import (
    TensorUEA,
    UEA,
    UEAElement,
    build_extended_twist,
    build_jordanian_twist,
    classical_limit,
    coproduct,
    counit,
    exp_trunc,
    factored_r_matrix,
    invert_trunc,
    log_trunc,
    pbw_normalize,
    qybe_check,
    tensor_product,
    twist_cocycle_check,
    twist_counit_ok,
    universal_R,
)
from .dsl import ParseError, parse, render
from .runner import (
    CheckResult,
    LoadError,
    RunOptions,
    run_checks,
    run_source,
)
from .suite import CriterionResult, render_suite, run_suite

__all__ = [
    # scalars
    "Poly",
    "RatFunc",
    "TruncationOrder",
    "UnsupportedInputError",
    "param",
    # lie algebras
    "Element",
    "GradedBasis",
    "LieSuperAlgebra",
    "Tensor",
    "otimes",
    "pencil",
    "wedge",
    # bialgebras and r-matrices
    "adjoint_twist_r",
    "check_cybe",
    "check_invariant",
    "check_mcybe",
    "cobracket_from_r",
    "decompose_check",
    "dual_algebra",
    "limit_r",
    "proportionality_constant",
    "schouten",
    # cohomology
    "Cochain1",
    "Cochain2",
    "CoboundaryOutcome",
    "cocycle2_witness",
    "compare_cochain2",
    "compatible_pair",
    "d1",
    "h2_dim",
    "is_cocycle2",
    "solve_coboundary",
    # catalog
    "catalog_entries",
    "catalog_entry",
    "catalog_get",
    "catalog_names",
    "make_borel",
    "make_double_pieces",
    "make_dual_jordanian",
    "make_dual_standard",
    "make_gl",
    "make_mu_prime",
    "make_osp12",
    "make_rborel",
    "make_rdj",
    "make_rfull",
    "make_rjordan",
    "make_sl",
    "mu_prime_transcription",
    # enveloping algebras and twists
    "TensorUEA",
    "UEA",
    "UEAElement",
    "build_extended_twist",
    "build_jordanian_twist",
    "classical_limit",
    "coproduct",
    "counit",
    "exp_trunc",
    "factored_r_matrix",
    "invert_trunc",
    "log_trunc",
    "pbw_normalize",
    "qybe_check",
    "tensor_product",
    "twist_cocycle_check",
    "twist_counit_ok",
    "universal_R",
    # definition files and execution
    "ParseError",
    "parse",
    "render",
    "CheckResult",
    "LoadError",
    "RunOptions",
    "run_checks",
    "run_source",
    # verdict suite
    "CriterionResult",
    "render_suite",
    "run_suite",
]

__version__ = "0.1.0"
