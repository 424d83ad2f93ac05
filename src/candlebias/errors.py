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


def json_number(value, name: str, shape: tuple = (), integer: bool = False):
    """value, a finite number read from JSON or nested lists of them, as a model keeps it.

    Every entry must be of type int, or float unless ``integer``, as json.loads
    gives them: a bool, a string, a NaN or an infinity (json.loads reads
    ``1e400`` as one) is refused. ``shape`` gives the length of each level of
    lists, None for any. A scalar comes back as a float, or as the int itself
    (a seed keeps all 64 bits); lists come back as a float array. Anything
    else raises ValueError naming ``name``.
    """
    if not shape:
        if type(value) is int or (type(value) is float and not integer
                                  and math.isfinite(value)):
            return value if integer else float(value)
        raise ValueError(f"{name} must be {'an integer' if integer else 'a finite number'}, "
                         f"got {value!r}")
    array = np.array(value, dtype=object)
    if array.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, array.shape)):
        raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
    bad = [x for x in array.flat if type(x) is not int and (
        integer or type(x) is not float or not math.isfinite(x))]
    if bad:
        raise ValueError(f"{name} must hold only {'integers' if integer else 'finite numbers'}, "
                         f"got {bad[0]!r}")
    return array.astype(float)
