"""Exception types shared across the package."""


class KneserLabError(Exception):
    """Base class for all package errors."""


class InvalidParams(KneserLabError):
    """A numeric argument violates a documented precondition."""


class CapExceeded(KneserLabError):
    """Ground set larger than DEFAULT_GROUND_CAP points."""


class InstanceTooLarge(KneserLabError):
    """An instance or walk would exceed one of the size limits in setsys."""


class InvalidPartSpec(KneserLabError):
    """Block list is not a valid partition of the ground set."""


class InadmissibleParams(KneserLabError):
    """Parameters violate the admissibility hypothesis r*k <= (r-1)*n."""


class InvalidCertificate(KneserLabError):
    """A certificate failed verification where a valid one is required."""


class MalformedCertificate(KneserLabError):
    """A certificate file or structure cannot be parsed."""


class LengthMismatch(KneserLabError):
    """A color list does not match the vertex count."""


class VerifyTimeout(KneserLabError):
    """A verifier ran past its time budget before reaching a verdict."""


class SoundnessError(KneserLabError):
    """An internal guard caught the program contradicting itself: a result
    that failed its own re-check or broke an invariant.  It signals a bug,
    never bad input, and is raised (not asserted) so it survives python -O."""
