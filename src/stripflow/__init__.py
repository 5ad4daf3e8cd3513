"""stripflow: one-phase free-boundary evolution on a flattened strip.

The moving domain {0 < y < h(x)} is mapped onto the fixed strip
R x (0, 1); the transformed elliptic system is solved spectrally
(Fourier in x, Chebyshev collocation in y); the interface advances by a
linearly-implicit step of dg/dt + O(g) = 0, where O is the nonlinear
boundary-flux (Dirichlet-to-Neumann type) operator of the flattened
problem.  Frozen-coefficient Fourier multipliers, coercivity probes and
admissibility margins provide the structural diagnostics.
"""

from ._version import __version__
from .errors import (AdmissibilityError, DegenerateDomainError,
                     EllipticityError, FreezePointError, ScenarioError,
                     SingularOperatorError, SolverError,
                     SpectralValidationError, StripflowError)
from .operator_core import (InterpolationNormSpec, PositivityReport,
                            SectorialOperator, frac_power, interp_norm,
                            matrix_sqrt, resolvent, semigroup,
                            validate_sectorial)
from .holder import (HolderNormReport, SampledFunction, h1alpha_norm,
                     h2alpha_norm, h_alpha_norm, holder_seminorm)
from .geometry import (InterfaceProfile, TransformedCoefficients, coefficients,
                       ellipticity_floor, map_forward, map_inverse,
                       pushforward)
from .model import (CoercivityReport, DecayGenerator, FrozenCoefficients,
                    MultiplierDecayReport, coercivity_probe_59,
                    decay_generator, halfplane_dirichlet_solve,
                    multiplier_profiles, transverse_semigroup)
from .strip import (DiscreteStripOperator, StripField, assemble,
                    coercivity_probe_33, solve_K)
from .dtn import (AdmissibilityReport, DtNApplication, DtNOperator,
                  FrozenOperatorSet, LocalizationReport, SectorReport,
                  admissibility, dtn_apply, dtn_derivative, frozen_set,
                  localization_residual, sector_report)
from .stepper import (EvolutionConfig, Reconstruction, Trajectory,
                      detect_breakdown, evolve, reconstruct, step)
from .scenario import (RunManifest, Scenario, export, load_scenario,
                       read_trajectory, run)

__all__ = [
    "__version__",
    # errors
    "StripflowError", "SpectralValidationError", "SingularOperatorError",
    "DegenerateDomainError", "EllipticityError", "FreezePointError",
    "SolverError", "AdmissibilityError", "ScenarioError",
    # operator calculus
    "SectorialOperator", "PositivityReport", "InterpolationNormSpec",
    "validate_sectorial", "resolvent", "frac_power", "matrix_sqrt",
    "semigroup", "interp_norm",
    # trace spaces
    "SampledFunction", "HolderNormReport", "holder_seminorm", "h_alpha_norm",
    "h1alpha_norm", "h2alpha_norm",
    # geometry
    "InterfaceProfile", "TransformedCoefficients", "map_forward",
    "map_inverse", "pushforward", "coefficients", "ellipticity_floor",
    # half-plane model
    "FrozenCoefficients", "DecayGenerator", "decay_generator",
    "transverse_semigroup", "halfplane_dirichlet_solve", "multiplier_profiles",
    "MultiplierDecayReport", "coercivity_probe_59", "CoercivityReport",
    # strip solver
    "DiscreteStripOperator", "StripField", "assemble", "solve_K",
    "coercivity_probe_33",
    # interface operator
    "DtNOperator", "DtNApplication", "FrozenOperatorSet", "SectorReport",
    "AdmissibilityReport", "LocalizationReport", "dtn_apply",
    "dtn_derivative", "frozen_set", "sector_report", "admissibility",
    "localization_residual",
    # evolution
    "EvolutionConfig", "Trajectory", "Reconstruction", "step", "evolve",
    "detect_breakdown", "reconstruct",
    # scenarios
    "Scenario", "RunManifest", "load_scenario", "run", "export",
    "read_trajectory",
]
