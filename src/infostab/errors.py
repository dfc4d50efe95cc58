"""Exception types shared across the library."""


class InfostabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(InfostabError, ValueError):
    """An evaluation was requested outside a function's or convention's domain."""


class InvalidResolutionError(InfostabError, ValueError):
    """The resolution is too small to produce the requested lattice."""


class InvalidDistributionError(InfostabError, ValueError):
    """A vector with negative coordinates or coordinates not summing to one."""


class ConfigurationError(InfostabError, ValueError):
    """Mismatched grid/equation combinations, malformed descriptors or run configs."""


class BudgetExceededError(ConfigurationError):
    """A sweep would hold more defect samples than the configured budget allows."""


class UnsupportedParameterError(InfostabError, ValueError):
    """A parameter outside the stated domain of a formula or pipeline."""


class DispatchError(UnsupportedParameterError):
    """The parameter regime belongs to a different certifier."""


class NonFiniteDefectError(InfostabError, ArithmeticError):
    """A sweep met a NaN or infinite defect, which no bound can certify, or a
    report would carry a NaN or infinite value."""
