"""Rewriting an output file in place.

``open(path, "w")`` truncates an existing file to zero first.  On ext4
that makes the close flush the file (the ``auto_da_alloc`` heuristic,
ext4(5)), and the next truncation must free the blocks the flush
allocated: 38-60 ms a file on a 2-vCPU VM's ext4 root mounted with
``discard``.  Replacing the file (``os.replace``, or unlink and create)
stalls too.  :func:`rewrite` writes over the same inode and cuts the
file where the writer stopped, so nothing is truncated to zero and a
same-size rewrite frees nothing.  Like ``open``, it makes no promise
about a crash mid-write.  This module imports nothing from the package.
"""

from __future__ import annotations

import os
import stat
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import IO


@contextmanager
def rewrite(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """``open(path, "wb" if binary else "w")`` that overwrites the file in place.

    The file keeps its inode, so a symlink is followed, hard links are
    kept and so is the mode; it ends with exactly the bytes written, and
    a writer that raises leaves what it wrote.  A file that is not a
    regular file (``/dev/null``, a pipe) is never truncated."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb" if binary else "w") as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
