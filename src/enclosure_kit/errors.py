"""Exception types shared across the package, and the CLI exit code of each.

Exit codes: 0 success, 1 usage/config error, 2 no applicable recovery
regime, 3 numerical failure.
"""

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_REGIME_EMPTY = 2
EXIT_NUMERICAL = 3


class EnclosureKitError(Exception):
    """Base class for every error raised by enclosure_kit.

    ``exit_code`` is the CLI exit status the error ends a command with.
    """

    exit_code = EXIT_NUMERICAL


class InvalidParameterError(EnclosureKitError, ValueError):
    """An argument violates its contract: a non-unit direction, a constant
    out of range, or arrays and objects from different meshes."""

    exit_code = EXIT_CONFIG


class EmptySlabError(EnclosureKitError):
    """The scene has no inclusions, so no probing slab holds material."""

    exit_code = EXIT_REGIME_EMPTY


class DegenerateHullError(EnclosureKitError):
    """Half-plane intersection is empty or unbounded."""


class ResourceLimitError(EnclosureKitError):
    """Requested discretization exceeds the configured element budget."""

    exit_code = EXIT_CONFIG


class MeshError(EnclosureKitError):
    """Invalid mesh: malformed arrays or indices, degenerate or misoriented
    triangle, or no triangles."""


class SolveError(EnclosureKitError):
    """Linear solve failed or did not meet the residual contract.

    Carries the offending relative residual in ``residual`` when known.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class ProbeResolutionError(EnclosureKitError):
    """Probe oscillation is not resolved by the mesh (tau * h_max too large).

    ``tau_max_admissible`` is the largest tau the mesh supports.
    """

    exit_code = EXIT_CONFIG

    def __init__(self, message: str, tau_max_admissible: float | None = None):
        super().__init__(message)
        self.tau_max_admissible = tau_max_admissible


class EstimationError(EnclosureKitError):
    """Support-function fit could not be performed (e.g. underflowed data)."""


class ConfigError(EnclosureKitError, ValueError):
    """Scenario configuration failed to parse or validate."""

    exit_code = EXIT_CONFIG
