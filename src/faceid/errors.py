"""Exception types shared across the package."""


class FaceidError(Exception):
    """Base class for all errors raised by this package."""


class GeometryError(FaceidError, ValueError):
    """Image or vector shape does not match the declared geometry."""


class DictionaryError(FaceidError, ValueError):
    """Dictionary construction or validation failed."""


class ConfigError(FaceidError, ValueError):
    """Inconsistent or out-of-range solver/experiment configuration."""


class NumericError(FaceidError, ArithmeticError):
    """A numeric kernel failed (factorization, eigendecomposition, non-finite input)."""


class ParseError(FaceidError, ValueError):
    """Malformed PGM file or dataset manifest."""
