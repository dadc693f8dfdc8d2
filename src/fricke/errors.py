"""Exception types shared across the package."""


class FrickeError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(FrickeError, ValueError):
    """A caller-supplied parameter is outside the contract (bad prime, level, word, ...)."""


class DomainError(FrickeError, ValueError):
    """A value is outside the mathematical domain of the operation (0, infinity, ...)."""


class InvalidGroupError(ParameterError):
    """Group parameters violate the defining constraint 0 < u2 < t - 1."""


class CacheError(FrickeError, ValueError):
    """An orbit cache file holds a run that is cut short or malformed."""


class EmptyPredicateError(FrickeError):
    """A sampler could not find any rational satisfying a predicate within its retry budget."""


class InternalCheckError(FrickeError, RuntimeError):
    """An internal consistency verification failed; indicates a bug, not bad input."""
