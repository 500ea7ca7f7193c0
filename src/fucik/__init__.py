"""Eigenfunctions of -u'' = alpha u+ - beta u- with Dirichlet conditions.

The package constructs the normalized piecewise-sine eigenfunctions
attached to the spectrum curves of this problem, evaluates their norms,
distances and scalar products in closed form, certifies every closed form
against an independent adaptive-quadrature oracle, and runs the summation
criteria under which these systems form a Riesz basis of L2(0, pi).
"""

__version__ = "0.1.0"

from .spectrum import (
    FucikPoint,
    complete_point,
    curve_residual,
    diagonal_point,
    gamma_line_point,
)
from .eigenfunction import FucikEigenfunction, SineMode, breakpoints, build, evaluate
from .quadrature import inner_numeric, integrate_many
from .closedform import (
    ClosedFormValue,
    dist_sq_to_sine,
    inner_cross_index,
    inner_same_index,
    norm_sq,
)
from .nearness import (
    BranchRule,
    FinitePerturbation,
    GammaLine,
    NearnessReport,
    PowerFamily,
    bound_Cn,
    corollary_cn_cap,
    kato_weakened_term,
    region_boundary,
    theorem1_check,
    theorem2_check,
    zeta,
)
from .paleywiener import (
    PaleyWienerBudget,
    E_gamma,
    E_gamma_extended,
    Tk_norm,
    budget,
    ck_bound,
    fourier_Ak,
    gamma_admissible_max,
)
from .grammatrix import (
    GramTruncation,
    build_gram,
    extreme_eigenvalues,
    riesz_scan,
)

__all__ = [
    "__version__",
    "FucikPoint", "complete_point", "curve_residual",
    "diagonal_point", "gamma_line_point",
    "FucikEigenfunction", "SineMode", "breakpoints", "build", "evaluate",
    "inner_numeric", "integrate_many",
    "ClosedFormValue", "dist_sq_to_sine",
    "inner_cross_index", "inner_same_index", "norm_sq",
    "BranchRule", "FinitePerturbation", "GammaLine", "NearnessReport",
    "PowerFamily", "bound_Cn", "corollary_cn_cap", "kato_weakened_term",
    "region_boundary", "theorem1_check", "theorem2_check", "zeta",
    "PaleyWienerBudget", "E_gamma", "E_gamma_extended", "Tk_norm",
    "budget", "ck_bound", "fourier_Ak", "gamma_admissible_max",
    "GramTruncation", "build_gram", "extreme_eigenvalues", "riesz_scan",
]
