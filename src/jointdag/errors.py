"""Exception types shared across the package."""


class NotPositiveDefiniteError(ValueError):
    """A matrix required to be positive definite is not."""


class ImproperPriorError(ValueError):
    """Shape parameters violate the propriety constraint alpha_i - nu_i > 2."""


class DataError(ValueError):
    """Input data contain non-finite or malformed entries."""


class DimensionError(ValueError):
    """Array dimensions are inconsistent."""


class EnumerationLimitError(ValueError):
    """Exhaustive enumeration requested above ``scoring.ENUMERATION_LIMIT``."""


class RankDeficientError(ValueError):
    """A least-squares Gram matrix is singular to working precision."""


class UndefinedAUCError(ValueError):
    """AUC is undefined because the truth labels are all equal."""


class ConfigError(ValueError):
    """A run configuration key is unknown, mistyped, or out of range."""


class InitializationError(RuntimeError):
    """The sampler initial state has a non-finite score."""


class InternalConsistencyError(RuntimeError):
    """Incrementally maintained score caches diverged from a fresh evaluation."""
