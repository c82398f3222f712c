"""Exception types shared across the package."""


class StruveBoundsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(StruveBoundsError):
    """An argument lies outside the mathematical domain of the operation."""


class ConvergenceError(StruveBoundsError):
    """A series hit its term cap before reaching the requested tolerance."""


class OverflowRisk(StruveBoundsError):
    """The argument is large enough that double precision would degrade."""


class InvalidBracket(StruveBoundsError, ValueError):
    """A bracket's sides are out of order (lower > upper), as given or as
    computed; also a ValueError, which Bracket raised before this type."""


class NoValidBound(StruveBoundsError):
    """No registered inequality is valid at the requested order."""


class UnknownBound(StruveBoundsError):
    """The requested bound identifier or target is not in the registry."""


class NoSignChange(StruveBoundsError):
    """Crossover search found no sign change of the difference on the interval."""


class MultipleSignChanges(StruveBoundsError):
    """Crossover search found more than one sign change on the interval."""


class ExtraMissing(StruveBoundsError, ImportError):
    """An optional dependency is not installed; the message names the extra
    that provides it (numpy, the sweeps extra, for verify's sweeps).  Also
    an ImportError, which the failed import would otherwise raise."""
