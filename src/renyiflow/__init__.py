"""Renyi entropy power along the nonlinear heat flow u_t = Lap(u^p).

A numerical laboratory for the functionals H_p, N_p, F_p, I_p, D_p and
Upsilon_p = N_p I_p on 1-D and radially symmetric densities: closed-form
source solutions and sharp constants, a conservative finite-volume solver
(explicit CFL steps or linearly implicit BDF2, chosen before each snapshot
interval), and verdict-style verification of concavity, the DeBruijn-type
identity, the dissipation identity, the isoperimetric bound and Sobolev
sharpness.
"""

from .analytic import (
    UNIT_COEFF,
    PDE_NORMALIZED,
    BarenblattSpec,
    Coefficients,
    HeatKernelSpec,
    barenblatt_a,
    barenblatt_c,
    barenblatt_entropy,
    barenblatt_entropy_power,
    barenblatt_fisher,
    barenblatt_p_integral,
    barenblatt_profile,
    barenblatt_second_moment,
    barenblatt_self_similar,
    barenblatt_spec,
    barenblatt_tail_mass,
    coefficients,
    gamma_const,
    gaussian_density,
    heat_kernel_entropy_power,
    sobolev_constant,
    suggest_domain_radius,
    support_radius,
)
from .errors import (
    BoundaryLeakWarning,
    DegenerateError,
    DomainError,
    InsufficientData,
    StabilityError,
)
from .functionals import (
    FunctionalSnapshot,
    d_p,
    e_p_integral,
    entropy_power,
    fisher_p,
    gn_lhs_rhs,
    mass,
    p_norm_integral,
    pressure_laplacian_integral,
    renyi_entropy,
    rescale,
    self_similar_rescale,
    snapshot,
    sobolev_pair,
    upsilon,
)
from .grids import DensityField, Grid, gradient, second_derivative, sphere_surface
from .initial_data import (
    blend_with_barenblatt,
    compact_two_bump,
    sample_barenblatt,
    sample_barenblatt_from_spec,
    sample_gaussian,
    sample_mixture,
)
from .solver import (
    DiffusionParams,
    DomainSizingReport,
    EvolutionResult,
    SolverState,
    cfl_dt,
    evolve,
    fast_diffusion_guard,
    step,
)
from .verification import (
    ChainReport,
    CHECKS,
    Check,
    CheckResult,
    barenblatt_convergence,
    concavity_condition_chain,
    concavity_report,
    debruijn_check,
    dissipation_check,
    isoperimetric_check,
    rescaled_l1_distances,
    run_checks,
    second_differences,
    sobolev_check,
    upsilon_monotone,
)

__version__ = "0.1.0"
