"""The C kernel ``_rk4.c``: the one module that builds, loads and declares it.

The library holds four entry points, each the twin of a numpy or Python
routine that performs the same operations in the same order: ``rk4_rows``
and ``hermite_at`` (:mod:`.euler_arnold`), ``magnus_block``
(:mod:`.oracle`) and ``csv_rows`` (:mod:`.cli`).  A process loads it with
one ``ctypes.CDLL``, on the first use of any of them, from a private
per-user cache (``$XDG_CACHE_HOME/qcbound`` or ``~/.cache/qcbound``, else a
0700 ``qcbound-<uid>`` temp directory), building it there on a miss with
the platform ``cc`` (``-O2 -ffp-contract=off``, so that no product and sum
is fused).  Each caller then passes its own byte check against its twin to
:func:`checked`, once per process, and uses the library only if that check
passes.  No compiler, no usable cache, a failed or timed-out build or a
failed check leave the twin in use; nothing is printed and nothing but
what the process finds selects the backend.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import shutil
import sys
import tempfile
import zlib

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_rk4.c")
# no -ffast-math and no -march: the kernel must round as its twins do
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_BUILD_TIMEOUT_S = 60.0

_int, _long, _double, _ptr = ctypes.c_int, ctypes.c_long, ctypes.c_double, ctypes.c_void_p
# entry point: (restype, argtypes)
_SIGNATURES = {
    "rk4_rows": (_int, [_int] + [_ptr] * 5 + [_double, _int] + [_ptr] * 3),
    "hermite_at": (None, [_int, _int] + [_ptr] * 3 + [_int] + [_ptr] * 2),
    "magnus_block": (_int, [_int] * 3 + [_ptr, _double, _double] + [_ptr] * 6),
    "csv_rows": (_long, [_long] + [_ptr] * 3 + [ctypes.c_char_p, _long, _ptr]),
}


def _compiler():
    """The platform C compiler, the first ``cc`` on ``PATH``, or None."""
    return shutil.which("cc")


def _cache_dir():
    """A private per-user directory for the built kernel, or None.

    ``qcbound`` under ``$XDG_CACHE_HOME`` (else ``~/.cache``), else
    ``qcbound-<uid>`` in the temp directory; made with mode 0700 and used
    only if this user owns it and no one else can write to it.
    """
    uid = os.getuid()

    def candidates():
        base = (os.environ.get("XDG_CACHE_HOME")
                or os.path.join(os.path.expanduser("~"), ".cache"))
        yield os.path.join(base, "qcbound")
        yield os.path.join(tempfile.gettempdir(), f"qcbound-{uid}")

    for path in candidates():
        try:
            os.makedirs(path, mode=0o700, exist_ok=True)
            st = os.stat(path)
        except OSError:
            continue
        if (st.st_uid == uid and not st.st_mode & 0o022
                and os.access(path, os.W_OK | os.X_OK)):
            return path
    return None


def _build(compiler: str, target: str) -> None:
    """Compile ``_rk4.c`` into the shared library ``target`` within
    ``_BUILD_TIMEOUT_S``, or raise ``OSError``.  The library is written to
    a name of this thread's own and then renamed, so that no process loads
    half a file."""
    import subprocess
    import threading

    tmp = f"{target}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        subprocess.run([compiler, *_FLAGS, "-o", tmp, _SOURCE],
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=_BUILD_TIMEOUT_S,
                       check=True)
        os.replace(tmp, target)
    except subprocess.SubprocessError as err:
        raise OSError(f"cannot build {target}: {err}") from err
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@functools.cache
def _library():
    """The library with its entry points declared, loaded (and built on a
    cache miss) once per process; None without a compiler or a cache
    directory, or when the build or the load fails.  The file is named by
    a CRC of the source, the flags, the compiler and the machine."""
    try:
        compiler = _compiler()
        directory = None if compiler is None else _cache_dir()
        if directory is None:
            return None
        with open(_SOURCE, "rb") as f:
            source = f.read()
        st = os.stat(compiler)
        key = repr((_FLAGS, os.path.realpath(compiler), st.st_size,
                    st.st_mtime_ns, sys.platform, platform.machine())).encode()
        path = os.path.join(directory,
                            f"rk4-{zlib.crc32(key, zlib.crc32(source)):08x}.so")
        if not os.path.exists(path):
            _build(compiler, path)
        lib = ctypes.CDLL(path)
        for name, (restype, argtypes) in _SIGNATURES.items():
            entry = getattr(lib, name)
            entry.restype, entry.argtypes = restype, argtypes
    except (OSError, AttributeError):   # AttributeError: no os.getuid, no symbol
        return None
    return lib


@functools.cache
def checked(agrees):
    """The library, once ``agrees(library)`` has returned True in this
    process; None, so that the caller's twin runs, when there is no
    library or the check fails.  ``agrees`` is the caller's byte check of
    the entry points it uses against their twins."""
    lib = _library()
    return lib if lib is not None and agrees(lib) else None
