"""Numerical verification engine for the operator Ito formula on Volterra
Gaussian processes: kernels, exact Gaussian polynomial calculus, path
simulation, energy functions / intrinsic brackets and Markovian kernel
approximation."""

__version__ = "0.1.0"

from .approx import ApproxReport, convergence_suite, fit_expsum
from .bracket import (
    EnergyFunction,
    cross_bracket,
    energy_function,
    estimate_hurst,
    stieltjes_integrate,
)
from .errors import DomainError, NumericalError, ResourceError
from .itoverify import (
    TestFunction,
    VerificationReport,
    mehler_conditional,
    verify_mean_identity,
    verify_multivariate,
    verify_pathwise_formula,
    verify_uniqueness_perturbation,
)
from .kernels import (
    BrownianKernel,
    ExpSumKernel,
    Kernel,
    QuadSpec,
    RiemannLiouvilleKernel,
    TableKernel,
    TimeGrid,
    covariance,
    equal_energy_grid,
    kernel_cell_l2,
    kernel_eval,
    kernel_from_json,
    kernel_from_spec,
    kernel_l2mu_distance,
)
from .paths import (
    RngStream,
    dump_paths_csv,
    simulate_cholesky,
    simulate_volterra,
)
from .sandbox import (
    GaussPoly,
    PolyField,
    check_adjointness,
    check_isometry,
    check_ortho_identity,
    check_product_rule,
    derive,
    diverge,
    factorization_defect,
    project_predictable,
    sandbox_suite,
    wick_expectation,
)

__all__ = [
    "__version__",
    "ApproxReport", "convergence_suite", "fit_expsum",
    "EnergyFunction", "cross_bracket", "energy_function", "estimate_hurst",
    "stieltjes_integrate",
    "DomainError", "NumericalError", "ResourceError",
    "TestFunction", "VerificationReport", "mehler_conditional",
    "verify_mean_identity", "verify_multivariate", "verify_pathwise_formula",
    "verify_uniqueness_perturbation",
    "BrownianKernel", "ExpSumKernel", "Kernel", "QuadSpec",
    "RiemannLiouvilleKernel", "TableKernel", "TimeGrid", "covariance",
    "equal_energy_grid", "kernel_cell_l2", "kernel_eval", "kernel_from_json",
    "kernel_from_spec", "kernel_l2mu_distance",
    "RngStream", "dump_paths_csv", "simulate_cholesky", "simulate_volterra",
    "GaussPoly", "PolyField", "check_adjointness", "check_isometry",
    "check_ortho_identity", "check_product_rule", "derive", "diverge",
    "factorization_defect", "project_predictable", "sandbox_suite",
    "wick_expectation",
]
