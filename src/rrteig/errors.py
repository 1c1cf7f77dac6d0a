"""Exception types shared across the library."""


class RRTError(Exception):
    """Base class for all library errors."""


class NonMonotonicNodes(RRTError):
    """A node vector is not strictly increasing."""


class NonFiniteNodes(RRTError):
    """A node vector holds NaN or an infinite coordinate."""


class TooFewNodes(RRTError):
    """A node vector has fewer than two entries."""


class LayoutMismatch(RRTError):
    """A coefficient vector does not conform to the DOF layout."""


class NotConverged(RRTError):
    """The eigen-iteration did not reach the requested tolerance."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class KTooLarge(RRTError):
    """More eigenpairs requested than the discrete spectrum holds."""


class OracleCapExceeded(RRTError):
    """Mesh too large for the dense verification oracle."""


class OddMeshDimensions(RRTError):
    """Postprocessing needs an even cell count in each direction."""


class AmbiguousCluster(RRTError):
    """A discrete eigenfunction cannot be matched to an exact eigenspace."""


class AmbiguousAssignment(RRTError):
    """Frequency predictions are too close to separate the cluster."""


class DimensionMismatch(RRTError):
    """Eigenspace bases have incompatible dimensions or metrics."""


class SingularSystem(RRTError):
    """A linear system expected to be definite is singular."""


class IoFailure(RRTError):
    """Report output could not be written."""


class InvalidConfig(RRTError):
    """An experiment config is malformed (unknown or missing keys, values
    of the wrong type) or its domain is outside what the analyses support."""
