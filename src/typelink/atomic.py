"""Whole-file writes: a stage's output either appears complete or not at all."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from typing import IO, Iterator


@contextmanager
def atomic_write(path: str, binary: bool = False) -> Iterator[IO]:
    """Yield a file open for writing that replaces `path` when the block succeeds.

    The data goes to a temporary file in the target's directory, which is
    renamed onto `path` only after it is closed, so a reader never sees a
    partly written file and a failure inside the block leaves any earlier
    file at `path` as it was.  The temporary file is created with mode
    0o666 less the umask, the mode plain ``open`` gives a new file.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb" if binary else "w", encoding=None if binary else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
