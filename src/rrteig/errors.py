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
    """A pair's 1-D factor or an exact field's domain does not fit the mesh."""


class DegenerateFactor(RRTError):
    """A pair's v or w factor is all zeros, so its norms divide 0 by 0."""


class NotConverged(RRTError):
    """An eigenpair's residual exceeds the roundoff bound the mesh fixes,
    or the 1-D Lanczos modes failed; ``residuals`` holds every pair's
    residual when the bound failed."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class KTooLarge(RRTError):
    """More eigenpairs requested than the discrete spectrum holds."""


class OddMeshDimensions(RRTError):
    """Postprocessing needs an even cell count in each direction."""


class AmbiguousCluster(RRTError):
    """A discrete pair of a multiple exact eigenvalue carries a mode label
    outside that eigenspace, so no exact field of the eigenspace is its
    own."""


class DimensionMismatch(RRTError):
    """A mixed pair differs from its enriched-element lift by more than
    roundoff."""


class IoFailure(RRTError):
    """Report output could not be written."""


class InvalidConfig(RRTError, ValueError):
    """An experiment config or eigenpair request is malformed (unknown or
    missing keys, values of the wrong type or out of range) or its domain
    is outside what the analyses support.  It is a ValueError too."""
