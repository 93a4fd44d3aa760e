"""Exception types raised across the package.

Every error that signals a violated contract derives from
:class:`BlaschkeLabError`, so callers can catch the package's failures
with a single except clause while still distinguishing the cause.
"""

__all__ = [
    "BlaschkeLabError",
    "PointOutsideDisk",
    "DuplicatePoint",
    "PrecisionViolation",
    "IndexOutOfRange",
    "TruncationTooDeep",
    "SamplingExhausted",
    "ZeroCollision",
    "NearnessExceeded",
    "SeparationTooSmall",
    "ContractionViolated",
    "MaxIterExceeded",
    "RootVerificationFailed",
    "ConfigInvalid",
    "IoFailure",
]


class BlaschkeLabError(Exception):
    """Base class for all package errors."""


class PointOutsideDisk(BlaschkeLabError):
    """A point was not strictly inside the unit disk."""


class DuplicatePoint(BlaschkeLabError):
    """Two points of a sequence coincide within tolerance."""


class PrecisionViolation(BlaschkeLabError):
    """A guaranteed inequality failed beyond numerical slack; indicates a bug."""


class IndexOutOfRange(BlaschkeLabError, IndexError):
    """A zero index was outside the valid range."""


class TruncationTooDeep(BlaschkeLabError):
    """A generated sequence would reach points indistinguishable from the circle."""


class SamplingExhausted(BlaschkeLabError):
    """Rejection sampling failed to meet the separation floor."""


class ZeroCollision(BlaschkeLabError):
    """An evaluation point coincides with a zero of the product."""


class NearnessExceeded(BlaschkeLabError):
    """A paired sequence strayed beyond the stated perturbation radius."""


class SeparationTooSmall(BlaschkeLabError):
    """Two zero sets are too close for a stable union construction."""


class ContractionViolated(BlaschkeLabError):
    """The nearby-sequence iteration has no contraction guarantee."""


class MaxIterExceeded(BlaschkeLabError):
    """Iterative correction did not reach the target residual in time."""


class RootVerificationFailed(BlaschkeLabError):
    """A computed preimage failed its residual or location check."""


class ConfigInvalid(BlaschkeLabError):
    """An experiment configuration was malformed."""


class IoFailure(BlaschkeLabError):
    """Reading or writing an input/output file failed."""
