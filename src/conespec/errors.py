"""Exception types shared across the library.

Every error carries a structured payload (keyword arguments at raise time)
so the CLI can surface machine-readable diagnostics next to the message.
"""


class ConespecError(Exception):
    """Base class for library errors."""

    def __init__(self, message, **payload):
        super().__init__(message)
        self.payload = dict(payload)

    def payload_items(self):
        return sorted(self.payload.items())


class ConfigurationError(ConespecError):
    """A parameter violates a documented precondition."""


class IndexSetError(ConespecError):
    """Incompatible index sets (for example mismatched cutoffs)."""


class SymbolRejection(ConespecError):
    """A symbol failed a structural check (ellipticity, finiteness)."""


class RootFindingError(ConespecError):
    """Polynomial or special-function root finding did not converge."""


class InsufficientSpectrumError(ConespecError):
    """Not enough eigenvalues for the requested parameter range."""


class NumericalError(ConespecError):
    """A residual or quadrature failed to meet its tolerance."""


class ConditioningError(ConespecError):
    """A least-squares design is too ill conditioned to trust."""


class ZetaPoleError(ConespecError):
    """Evaluation was requested at (or too close to) a reported pole."""
