"""Numerically verified second-order variational analysis of conic
constraint systems Gamma = g^{-1}(K)."""

from .cone_core import (
    AmbientVec, ConeDesc, Tol, Orthant, SOC, PSD, Zero, Free,
    project, contains, tangent_cone, normal_cone,
)
from .cone_geometry import Certificate, ri_normal_contains, subspace_cone_trivial
from .proj_deriv import GraphPoint, proj_dir_deriv, dnk_contains
from .constraint_system import (
    ConstraintSystem, BasePoint, MultiplierSolveResult,
    example1_system, example3_system, section32_system,
    affine_system, quadratic_system,
    multiplier_solve, multiplier_verify, BasePair,
    srcq_check, nondegeneracy_check, strict_complementarity_check,
    ngamma_graph_deriv_contains,
)
from .stability import (
    GEProblem, PhiPoint, SmoothFn, SmoothMap,
    phi_residual, phi_subregularity_probe, solution_map_isolated_calm,
    kkt_isolated_calm, example41_problem, lp_kkt_data,
)
from . import oracle

__version__ = "0.1.0"
