"""Exception types shared across the package."""


class LicallocError(Exception):
    """Base class for all errors raised by this package."""


class NotFoundError(LicallocError, LookupError):
    """No license tree node satisfies the lookup."""


class InvalidTargetError(LicallocError):
    """A consume/deplete target does not match the request or is not valid."""


class ChooserContractError(LicallocError):
    """A chooser callback returned an id outside the candidate list."""
