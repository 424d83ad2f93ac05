"""Exception types shared across the package."""

import contextlib


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
