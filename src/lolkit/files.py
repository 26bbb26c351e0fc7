"""Atomic file output: every file lolkit writes appears whole or not at all."""

import os

from .errors import WriteFailure


def _atomic_write(path, lines):
    """Write the strings of ``lines`` to ``path`` as UTF-8, each as it is
    made, through a new temporary file beside ``path`` that replaces it
    only once all of them are written.  open() creates that file, so it
    gets open()'s mode, 0o666 less the umask.  An OSError, such as a
    missing or read-only directory, raises WriteFailure naming ``path``,
    with the OSError as its cause."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".lolkit-tmp-{os.urandom(8).hex()}")
    try:
        fh = open(tmp, "x", encoding="utf-8")
        try:
            with fh:
                fh.writelines(lines)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise WriteFailure(f"{path}: cannot write: {exc.strerror}") from exc
