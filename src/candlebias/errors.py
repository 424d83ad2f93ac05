"""Exception types, and the checks that raise them, shared across the package."""

import contextlib
import math

import numpy as np


class DataError(Exception):
    """Raised when input data cannot be ingested, labeled or split as requested."""


class TrainingDivergedError(Exception):
    """Raised when a training loop produces a non-finite cost or parameter."""


@contextlib.contextmanager
def writing(path):
    """Raise an OSError from the block as DataError naming path, the file being written."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


# float(n) of an int n rounds past the largest float from here on
_FLOAT_INT_BOUND = 2**1024 - 2**970


def _kept(x, integer: bool) -> bool:
    """True when x is an int, or unless integer, a finite float or an int a float holds."""
    if type(x) is int:
        return integer or -_FLOAT_INT_BOUND < x < _FLOAT_INT_BOUND
    return not integer and type(x) is float and math.isfinite(x)


def json_number(value, name: str, shape: tuple = (), integer: bool = False):
    """value, a finite number read from JSON or nested lists of them, as a model keeps it.

    Every entry must be of type int, or float unless ``integer``, as json.loads
    gives them: a bool, a string, a NaN or an infinity (json.loads reads
    ``1e400`` as one) is refused, and so is an int past the float range
    (``10**400``) unless ``integer``. ``shape`` gives the length of each level of
    lists, None for any. A scalar comes back as a float, or as the int itself
    (a seed keeps all 64 bits); lists come back as a float array. Anything
    else raises ValueError naming ``name``.
    """
    if not shape:
        if _kept(value, integer):
            return value if integer else float(value)
        raise ValueError(f"{name} must be {'an integer' if integer else 'a finite number'}, "
                         f"got {repr(value)[:100]}")
    array = np.array(value, dtype=object)
    if array.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, array.shape)):
        raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
    bad = [x for x in array.flat if not _kept(x, integer)]
    if bad:
        raise ValueError(f"{name} must hold only {'integers' if integer else 'finite numbers'}, "
                         f"got {repr(bad[0])[:100]}")
    return array.astype(float)
