"""Exception types shared across the package.

Each type names the exit code ``price`` ends with when it escapes a run.
"""


class PricingError(Exception):
    """Base class for every error this package raises deliberately."""

    exit_code = 1


class SchemaError(PricingError):
    """Input cannot be read, is malformed JSON or does not match the schema."""

    exit_code = 2


class ValidationError(PricingError):
    """An instance violates a model invariant.

    ``violations`` keeps the individual findings.
    """

    exit_code = 2

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class DomainError(PricingError):
    """A numeric argument lies outside the operation's domain."""


class InfeasibleError(ValidationError):
    """Total capacity cannot cover demand.

    Validation raises it when this is an instance's only fault.
    """

    exit_code = 3


class SizeError(PricingError):
    """Too many generators for exhaustive commitment search."""

    exit_code = 4


class StalePriceError(PricingError):
    """A settlement price lies outside the current price set."""


class UnknownFormatError(PricingError):
    """Requested report format is not supported."""

    exit_code = 2
