"""Whole-file writes, so a stage's output appears complete or not at all, and
checked text reads, so a file that is not UTF-8 is refused under its name."""

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
    Nothing is fsynced, so this holds for a killed process, not for a
    power loss.
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


def read_lines(path: str) -> Iterator[str]:
    """The lines of a UTF-8 text file, as a text-mode file gives them.

    A leading byte-order mark is dropped, so it never becomes part of the
    first line.  Bytes that are not UTF-8 raise ValueError naming the file.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: not UTF-8 text ({err.reason})") from None
