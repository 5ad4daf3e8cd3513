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
                     SolverError, SpectralValidationError, StripflowError)
from .operator_core import (PositivityReport, SectorialOperator,
                            validate_sectorial)
from .holder import (CoercivityReport, SampledFunction, h1alpha_norm,
                     h2alpha_norm, holder_seminorm)
from .geometry import (InterfaceProfile, TransformedCoefficients, coefficients,
                       ellipticity_floor, map_forward, map_inverse)
from .model import (DecayGenerator, FrozenCoefficients,
                    MultiplierDecayReport, coercivity_probe_59,
                    decay_generator, halfplane_dirichlet_solve,
                    multiplier_profiles, transverse_semigroup)
from .strip import DiscreteStripOperator, StripField, coercivity_probe_33
from .dtn import (AdmissibilityReport, DtNOperator, FrozenOperatorSet,
                  LocalizationReport, SectorReport, admissibility, dtn_apply,
                  dtn_derivative, frozen_set, localization_residual,
                  sector_report)
from .stepper import (EvolutionConfig, Trajectory, detect_breakdown, evolve,
                      step)
from .scenario import RunManifest, Scenario, export, load_scenario, run

__all__ = [
    "__version__",
    # errors
    "StripflowError", "SpectralValidationError", "DegenerateDomainError",
    "EllipticityError", "FreezePointError", "SolverError",
    "AdmissibilityError", "ScenarioError",
    # operator calculus
    "SectorialOperator", "PositivityReport", "validate_sectorial",
    # trace spaces
    "SampledFunction", "holder_seminorm", "h1alpha_norm", "h2alpha_norm",
    # geometry
    "InterfaceProfile", "TransformedCoefficients", "map_forward",
    "map_inverse", "coefficients", "ellipticity_floor",
    # half-plane model
    "FrozenCoefficients", "DecayGenerator", "decay_generator",
    "transverse_semigroup", "halfplane_dirichlet_solve", "multiplier_profiles",
    "MultiplierDecayReport", "coercivity_probe_59", "CoercivityReport",
    # strip solver
    "DiscreteStripOperator", "StripField", "coercivity_probe_33",
    # interface operator
    "DtNOperator", "FrozenOperatorSet", "SectorReport",
    "AdmissibilityReport", "LocalizationReport", "dtn_apply",
    "dtn_derivative", "frozen_set", "sector_report", "admissibility",
    "localization_residual",
    # evolution
    "EvolutionConfig", "Trajectory", "step", "evolve", "detect_breakdown",
    # scenarios
    "Scenario", "RunManifest", "load_scenario", "run", "export",
]
