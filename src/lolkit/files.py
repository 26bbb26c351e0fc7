"""Atomic file output: every file lolkit writes appears whole or not at all."""

import os
import tempfile

from .errors import WriteFailure


def _atomic_write(path, lines):
    """Write the strings of ``lines`` to ``path`` as UTF-8, each as it is
    made, through a temporary file that replaces ``path`` only once all
    of them are written.  The file gets the mode open() would give it,
    0o666 less the umask, not mkstemp's 0o600.  An OSError, such as a
    missing or read-only directory, raises WriteFailure naming ``path``,
    with the OSError as its cause."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".lolkit-tmp-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                umask = os.umask(0)  # the only way to read it is to set it
                os.umask(umask)
                os.fchmod(fh.fileno(), 0o666 & ~umask)
                fh.writelines(lines)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise WriteFailure(f"{path}: cannot write: {exc.strerror}") from exc
