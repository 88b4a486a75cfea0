"""Build and load the compiled kernel, `_kernel.c`.

At first use the source is compiled with the system C compiler into a
private cache directory and loaded with ctypes. The library is named by
the SHA-256 of the source, the flags and the platform, so a changed
source builds a new one; a build writes a temporary file and renames it
into place, so concurrent first runs are safe, and so is the rebuild of a
cached file that does not load (say, one that a crash cut short).

`library()` serves the twelve loops that `_kernel.c`'s header comment
lists, each with the Python code it stands in for, and types each export
from its definition there (`_signatures`).
Without a compiler, or when the build or the cache directory fails,
`library()` returns None and the callers run Python loops over
`maps.step_function`, numpy's gathers, scatter, quantizer and argsort
passes, and Python's float formatting instead, and the key schedule
iterates both orbits on the calling thread. Both paths give the same
bytes (see `FLAGS`). A process that cannot build creates no cache
directory.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import os
import re
import shutil
import stat
import tempfile
from collections.abc import Iterator
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernel.c")
# -ffp-contract=off: no fused multiply-add, which would round the maps and
# the Lyapunov distance unlike Python; no -ffast-math and no -march.
# -pthread: the key schedule's orbit thread (`chaos_orbit_start`) needs
# the threads library, which glibc before 2.34 keeps apart from libc
FLAGS = ("-O2", "-ffp-contract=off", "-pthread", "-shared", "-fPIC")

# ctypes types of what an export returns and takes by value; a pointer
# argument is a c_void_p, and an untyped function would take and return C
# ints, which truncate 64-bit pointers
_RETURNS = {b"void": None, b"long long": ctypes.c_longlong}
_ARGUMENTS = {b"int": ctypes.c_int, b"double": ctypes.c_double, b"long long": ctypes.c_longlong}
# the definition of each function that the kernel exports: not static, at
# the start of a line
_EXPORT = re.compile(rb"^(?!static\b)(\w[\w *]*?) *\b(chaos_\w+)\(([^)]*)\)", re.M)


def _signatures(source: bytes) -> dict[str, tuple]:
    """Name -> (return type, argument types) of each `chaos_*` function that
    `source` exports, from its definition; a type without a ctypes twin in
    `_RETURNS` or `_ARGUMENTS` raises ValueError."""
    signatures = {}
    for ret, name, params in _EXPORT.findall(source):
        args = [] if params.strip() == b"void" else params.split(b",")
        try:
            signatures[name.decode()] = (_RETURNS[ret], [
                ctypes.c_void_p if b"*" in arg else _ARGUMENTS[b" ".join(arg.split()[:-1])]
                for arg in args])
        except KeyError as exc:
            raise ValueError(f"{name.decode()}: no ctypes type for {exc.args[0]!r}") from None
    return signatures


def address(array) -> int:
    """The address of the data of a writeable C-contiguous array, as a
    kernel argument: `array.ctypes.data` takes 2.5 times as long (1.5 µs
    against 0.6 µs on numpy 2.4), which small key schedules, with their
    dozens of kernel calls, feel."""
    return ctypes.addressof(ctypes.c_char.from_buffer(array))


def _sha256(data: bytes) -> str:
    # CPython's own SHA-256 module first: importing hashlib loads OpenSSL,
    # which alone costs every process more than the rest of the lookup
    for module in ("_sha2", "_sha256"):
        with contextlib.suppress(ImportError):
            return importlib.import_module(module).sha256(data).hexdigest()
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _compiler() -> str | None:
    return shutil.which("cc")


def _cache_dirs() -> Iterator[Path]:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    yield Path(base, "chaosimg")
    yield Path(tempfile.gettempdir(), f"chaosimg-{os.getuid()}")


def _private(directory: Path, create: bool) -> bool:
    """True if `directory` is a real directory owned by this user with mode
    0700. With `create`, a missing one is made first; without, a missing one
    is True as well: it holds no kernel, and none will be built there."""
    try:
        if create:
            directory.parent.mkdir(parents=True, exist_ok=True)
            with contextlib.suppress(FileExistsError):
                directory.mkdir(mode=0o700)
        st = os.lstat(directory)
    except FileNotFoundError:
        return not create
    except OSError:
        return False
    return (stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid()
            and stat.S_IMODE(st.st_mode) == 0o700)


def _build(cc: str, source: bytes, target: Path) -> bool:
    import subprocess

    tmp = ""  # unlinked below: "" raises FileNotFoundError
    try:  # a directory that takes no new file fails the build too
        fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=target.parent)
        os.close(fd)
        done = subprocess.run([cc, *FLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
                              input=source, capture_output=True, timeout=120)
        if done.returncode != 0:
            return False
        os.replace(tmp, target)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


@functools.cache
def library():
    """The kernel as a ctypes library whose exports are typed
    (`_signatures`), or None if it cannot be built or loaded here."""
    if not hasattr(os, "getuid"):
        return None
    import sysconfig

    try:
        source = SOURCE.read_bytes()
    except OSError:
        return None
    tag = _sha256(b"\0".join(
        [source, " ".join(FLAGS).encode(), sysconfig.get_platform().encode()]
    ))
    cc = _compiler()  # without one, no directory is made
    directory = next((d for d in _cache_dirs() if _private(d, cc is not None)), None)
    if directory is None:
        return None
    path = directory / f"kernel-{tag[:32]}.so"
    signatures = _signatures(source)
    for cc in (cc, None):  # a file that is missing or does not load is built, once
        try:
            lib = ctypes.CDLL(str(path))
            for name, (restype, argtypes) in signatures.items():
                fn = getattr(lib, name)
                fn.restype, fn.argtypes = restype, argtypes
            return lib
        except (OSError, AttributeError):
            if cc is None or not _build(cc, source, path):
                return None
