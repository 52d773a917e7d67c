"""Numerical toolkit for elliptic problems with degenerate matrix-valued weights.

Subpackages cover pointwise SPD weight algebra and logarithmic means,
sampling-based BMO/Muckenhoupt estimation, shifted N-function calculus, a P1
finite-element energy minimizer for the weighted p-Laplacian, closed-form
sharpness examples, and a harness that measures both sides of the gradient
transfer estimates.
"""
from .weight_algebra import (
    Ball,
    Field,
    QuadratureSpec,
    condition_number,
    log_mean_matrix,
    log_mean_scalar,
    sandwich_check,
    spd_exp,
    spd_log,
)
from .exact_examples import MeyersExample
from .seminorms import BallFamily, bmo, muckenhoupt_ap
from .nfunctions import PowerPhi, ShiftedPhi, a_map, hammer_check, v_map, weighted_maps
from .meshing import Mesh, annulus_mesh, disk_mesh, unit_square_mesh
from .pde_solver import (
    DiscreteField,
    SolverConfig,
    WeakProblem,
    energy,
    interpolate,
    solve,
    weak_residual,
    weighted_lp_norm,
)
from .cz_harness import (
    CzReport,
    SweepSpec,
    build_localized,
    caccioppoli_check,
    comparison_check,
    cz_ratio,
    maximal,
    poincare_check,
    run_sweep,
    sharp_maximal,
)

__version__ = "0.1.0"
