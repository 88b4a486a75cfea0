"""Output files of the `chaosimg` CLI and of the analysis CSV writers."""

from __future__ import annotations

import contextlib
import os
import stat

# no O_TRUNC: see open_over; O_BINARY, where it exists, as `open` sets it
_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


@contextlib.contextmanager
def open_over(path):
    """`open(path, "wb")`, except that an existing regular file is written
    over from its start and cut to the length written when the block ends,
    instead of being emptied by the open.

    ext4 writes a file back to disk when it is closed after being emptied
    and rewritten, so every output waited on the disk: 0.1-0.6 ms a file on
    a 2-vCPU Xeon with a virtio disk, about as long as the rest of a small
    `encrypt`, and as variable as the disk. Written over, a file of the same
    length waits on nothing. A block that raises leaves the file uncut: the
    new bytes, then any old bytes past them."""
    fd = os.open(path, _FLAGS, 0o666)
    with open(fd, "wb") as fh:
        yield fh
        if stat.S_ISREG(os.fstat(fd).st_mode):  # a pipe or a device cannot be cut
            fh.truncate()
