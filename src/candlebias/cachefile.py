"""Cache files bound by a sha256 digest to the exact bytes of the file they stand for.

A cache file holds the sha256 of the source file's bytes followed by the
payload, then the payload. :func:`read` gives the payload only when that
digest matches the source bytes its caller has just read, so a cache that is
missing, stale, truncated, damaged or copied from elsewhere is ignored, and
the source file stays the only one a command needs. dataset.csv.rows and
model_rf.json.nodes are such caches.
"""

import hashlib

from .errors import writing


def write(path, source, payload) -> None:
    """Write the cache of payload, a bytes-like object, to path; source is a
    sha256 object already fed the source file's bytes. A failed write raises
    DataError naming path."""
    source.update(payload)
    with writing(path), open(path, "wb") as fh:
        fh.write(source.digest())
        fh.write(payload)


def read(path, source: bytes):
    """The payload of the cache at path, as a read-only memoryview, when its digest
    binds it to source, the source file's bytes; None otherwise."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    digest = hashlib.sha256(source)
    stored, payload = data[:digest.digest_size], memoryview(data)[digest.digest_size:]
    digest.update(payload)
    return payload if digest.digest() == stored else None
