"""Exception hierarchy shared across the package."""

import sys


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


def check_cells(what: str, cells: int) -> None:
    """Raise MemoryError, as numpy does for an array it cannot allocate, when
    `cells` float64 values are more than one array can describe: there numpy
    raises ValueError or IndexError instead."""
    if cells * 8 > sys.maxsize:
        raise MemoryError(f"{what}: too large to allocate")
