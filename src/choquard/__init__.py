"""Solver library for fractional magnetic Choquard ground states on truncated
grids: penalized energy minimization on the Nehari manifold, with diagnostics
for decay and concentration."""

__version__ = "0.1.0"  # before the submodules: `io` reads it for the run manifest

from .config import (ConfigError, PotentialSpec, ProblemConfig, ValidationReport,
                     check_problem, validate_config)
from .diagnostics import (CheckResult, check_concentration, check_decay,
                          check_diamagnetic, fit_decay)
from .energy import (Calibration, EnergyContext, EnergyReport, NehariError,
                     build_limit_context, build_penalized_context,
                     calibrate_penalization, energy_terms, energy_value, gradient,
                     nehari_project, nehari_residual)
from .grids import Field, GridSpec
from .io import ParsedConfig, load_field, parse_config, report_to_dict, save_field
from .nonlinearity import PenalizationParams, PowerNonlinearity, G_eval, g_eval
from .operators import (HartreeCache, QuadratureOperator, SpectralOperator,
                        build_hartree_cache, frac_lap_constant, near_zone_weight,
                        quadratic_form, riesz_convolve, sphere_area)
from .potentials import (BallRegion, BoxRegion, clipped_quadratic_V, constant_A,
                         constant_V, sine_A)
from .solver import (SolveReport, SolverError, SolverOptions, phase_gauge,
                     rescale_field, solve_limit, solve_penalized, sweep_epsilon)
