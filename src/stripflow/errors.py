"""Exception taxonomy for stripflow.

Every failure mode that carries meaning for a caller gets its own class so
batch drivers can map errors onto exit codes without string matching.
"""


class StripflowError(Exception):
    """Base class for all library errors."""


class SpectralValidationError(StripflowError):
    """A coupling matrix failed a positivity / sectoriality check."""


class DegenerateDomainError(StripflowError):
    """Interface height dropped to (or below) the degeneracy guard."""

    def __init__(self, message, h_min=None, where=None):
        super().__init__(message)
        self.h_min = h_min
        self.where = where


class EllipticityError(StripflowError):
    """Transformed principal symbol lost its positivity margin."""


class FreezePointError(StripflowError, ValueError):
    """The frozen-coefficient reduction does not apply at a boundary point.

    The point is not a grid node, carries complex geometry, or (m > 1) has
    components that differ there.
    """


class SolverError(StripflowError):
    """An elliptic solve did not converge to the requested residual."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class AdmissibilityError(StripflowError):
    """Initial profile violates the evolution admissibility gate."""

    def __init__(self, message, margin=None):
        super().__init__(message)
        self.margin = margin


class ScenarioError(StripflowError):
    """Scenario file is malformed or semantically invalid."""

    def __init__(self, message, path=None, section=None, key=None):
        parts = [message]
        if section is not None:
            parts.append(f"[section {section}]")
        if key is not None:
            parts.append(f"[key {key}]")
        super().__init__(" ".join(parts))
        self.path = path
        self.section = section
        self.key = key
