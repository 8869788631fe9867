"""Atomic file publication.

Every file another process may read while it is being rewritten —
run records, ``status.json``, ``coverage.json``, the stepper cache —
goes through :func:`atomic_write`: a same-directory temp file, then
:func:`os.replace`, so a reader sees the old file or the new one,
never a torn write.
"""

import os
import tempfile

__all__ = ["atomic_write"]


def atomic_write(path, data):
    """Replace ``path`` with ``data`` (``str`` is UTF-8 encoded).

    Raises :class:`OSError` like any write; callers that must never
    fail swallow it themselves.  The temp file never outlives a
    failure.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    return path
