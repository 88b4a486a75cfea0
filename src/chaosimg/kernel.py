"""Build and load the compiled kernel, `_kernel.c`.

At first use the source is compiled with the system C compiler into a
private cache directory and loaded with ctypes. The library is named by
the SHA-256 of the source, the flags and the platform, so a changed
source builds a new one; a build writes a temporary file and renames it
into place, so concurrent first runs are safe.

`library()` serves twelve loops: `chaos_fill`, through which `maps.fill`
iterates a map for the key schedule, the phase points and the Lyapunov
transient; `chaos_sweep`, which makes every row of
`analysis.bifurcation_sweep` in one call; `chaos_lyapunov`, which
`analysis.lyapunov_exponent` runs for the Lyapunov steps;
`chaos_gather_xor` and `chaos_scatter_xor`, the one pass over the image
of `cipher.encrypt` and `cipher.decrypt`; `chaos_gather_in_place` and
`chaos_slot`, the index passes of `cipher.build_key_schedule`;
`chaos_quantize`, the byte pass of `maps.quantize_to_bytes`;
`chaos_pack` and `chaos_unpack`, the passes of
`maps.permutation_from_sequence` before and after numpy's sort;
`chaos_format_rows`, which formats the bifurcation, phase and Lyapunov CSVs;
and a thread's, which iterates Map 1 as `chaos_fill` does while
`cipher.build_key_schedule` keys Map 2 (`chaos_orbit_start`, one `_take`
per segment, and `_join`, on a handle of `chaos_orbit_size` bytes).
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

# the map's number (1 or 2), r, a*r and b, which both map loops take first
_MAP = [ctypes.c_int, ctypes.c_double, ctypes.c_double, ctypes.c_double]
# src, index, key, out, n
_BYTE_LOOP = (None, [ctypes.c_void_p] * 4 + [ctypes.c_longlong])
# name -> (return type, argument types) of every function that the kernel
# exports: an untyped one would take and return C ints, which truncate
# 64-bit pointers
_SIGNATURES = {
    # state, skip, xs, ys, n
    "chaos_fill": (ctypes.c_longlong, [*_MAP, ctypes.c_void_p, ctypes.c_longlong,
                                       ctypes.c_void_p, ctypes.c_void_p, ctypes.c_longlong]),
    # rs, count, a, b, x0, y0, skip, xs, n
    "chaos_sweep": (None, [ctypes.c_int, ctypes.c_void_p, ctypes.c_longlong,
                           *[ctypes.c_double] * 4, ctypes.c_longlong, ctypes.c_void_p,
                           ctypes.c_longlong]),
    # x, y, d0, steps, out
    "chaos_lyapunov": (ctypes.c_longlong, [*_MAP, ctypes.c_double, ctypes.c_double,
                                           ctypes.c_double, ctypes.c_longlong, ctypes.c_void_p]),
    "chaos_gather_xor": _BYTE_LOOP,
    "chaos_scatter_xor": _BYTE_LOOP,
    # src, index, n
    "chaos_gather_in_place": (None, [ctypes.c_void_p] * 2 + [ctypes.c_longlong]),
    # c, s0, x, y, layout, r, k, seen, n
    "chaos_slot": (None, [ctypes.c_void_p] * 8 + [ctypes.c_longlong]),
    # src, out, n
    "chaos_quantize": (ctypes.c_longlong, [ctypes.c_void_p] * 2 + [ctypes.c_longlong]),
    # words, perm, n, b
    "chaos_pack": (ctypes.c_longlong, [ctypes.c_void_p] * 2 + [ctypes.c_longlong, ctypes.c_int]),
    "chaos_unpack": (None, [ctypes.c_void_p] * 2 + [ctypes.c_longlong, ctypes.c_int]),
    "chaos_orbit_size": (ctypes.c_longlong, []),
    # handle, Map 1's r, x0, y0, skip, ys, the two orbit buffers, n
    "chaos_orbit_start": (ctypes.c_longlong, [ctypes.c_void_p, *[ctypes.c_double] * 3,
                          ctypes.c_longlong, *[ctypes.c_void_p] * 3, ctypes.c_longlong]),
    "chaos_orbit_take": (ctypes.c_longlong, [ctypes.c_void_p]),
    "chaos_orbit_join": (None, [ctypes.c_void_p]),
    # pairs, n, out
    "chaos_format_rows": (ctypes.c_longlong, [ctypes.c_void_p, ctypes.c_longlong,
                                              ctypes.c_void_p]),
}


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
    """The kernel as a ctypes library whose functions in `_SIGNATURES` are
    typed, or None if it cannot be built or loaded here."""
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
    if not path.exists() and (cc is None or not _build(cc, source, path)):
        return None
    try:
        lib = ctypes.CDLL(str(path))
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
    except (OSError, AttributeError):
        return None
    return lib
