"""Exception hierarchy shared across the package."""


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class NumericError(RuntimeError):
    """An operation produced non-finite values or a solve failed numerically."""


class ConfigError(ValueError):
    """Invalid configuration: bad hyperparameters, group spec, or config file."""


class DataError(ValueError):
    """Malformed or degenerate input data."""


class ConvergenceError(NumericError):
    """A fit found nothing left to extract, e.g. PLS on a constant target."""
