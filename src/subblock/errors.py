"""Exception types shared across the toolkit."""


class SubblockError(Exception):
    """Base class for all toolkit-specific errors."""


class SizeLimit(SubblockError):
    """An enumeration or materialization would exceed its configured cap."""


class Infeasible(SubblockError):
    """The requested energy constraint cannot be met by any input."""


class EmptyFeasibleSet(Infeasible):
    """No composition of the requested length meets the energy threshold."""


class DomainError(SubblockError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class AbsoluteContinuityViolation(DomainError):
    """v places mass where the reference channel is zero, so the divergence
    (and hence the sphere-packing exponent along that direction) is infinite."""


class DegenerateComposition(DomainError):
    """Operation undefined for a composition supported on a single symbol."""


class DegenerateSplit(DomainError):
    """Adversarial construction needs symbols on both sides of the threshold."""


class NoConvergence(SubblockError):
    """Iterative solver failed to converge within its iteration budget."""


class InfiniteExponent(NoConvergence):
    """No channel of finite divergence meets the rate: the target lies below
    the rate of the most-tilted family member, so E_sp is infinite."""
