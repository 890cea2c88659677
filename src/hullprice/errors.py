"""Exception types shared across the package."""


class PricingError(Exception):
    """Base class for every error this package raises deliberately."""


class SchemaError(PricingError):
    """Input JSON is malformed or does not match the instance schema."""


class ValidationError(PricingError):
    """An instance violates a model invariant.

    ``violations`` keeps the individual findings.
    """

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class DomainError(PricingError):
    """A numeric argument lies outside the operation's domain."""


class InfeasibleError(ValidationError):
    """Total capacity cannot cover demand.

    Validation raises it when this is an instance's only fault.
    """


class SizeError(PricingError):
    """Too many generators for exhaustive commitment search."""


class StalePriceError(PricingError):
    """A settlement price lies outside the current price set."""


class UnknownFormatError(PricingError):
    """Requested report format is not supported."""
