"""Build and load the ``c`` backend's loops (``lockstep.c``).

The source is compiled once per host by the C compiler Python was built
with (``sysconfig``'s ``CC``, else ``cc``), with fixed flags, and the
shared library is cached under a SHA-256 of the source, the compiler
command, the flags and the machine: in ``$XDG_CACHE_HOME`` (else
``~/.cache``) ``/repro-c90/``, else in a per-user directory under the
system temp dir.  A directory is used only if this user owns it and no
one else can write to it; the library is compiled to a temporary name
and moved into place with ``os.replace``, so a reader never sees half a
file.

:func:`load` builds at most once per process, under a lock; with a warm
cache it is one ``dlopen``.  Any failure (no compiler, a compile or load
error, no usable cache directory) leaves the backend unavailable and
returns ``None``, and :func:`failure` says why: importing and loading
never raise.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import stat
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path

__all__ = ["FLAGS", "SOURCE", "failure", "load"]

#: The loops' source, shipped as package data.
SOURCE = Path(__file__).with_name("lockstep.c")

#: Fixed compile flags: no ``-march=native`` (the cache may be shared
#: between hosts with one home) and no ``-ffast-math`` (results must be
#: numpy's bit for bit); ``-fwrapv`` wraps signed overflow as numpy does,
#: and ``-ffp-contract=off`` forbids fused multiply-adds.
FLAGS = ("-O2", "-shared", "-fPIC", "-fwrapv", "-ffp-contract=off")

#: Seconds the compiler may take before the build counts as failed.
COMPILE_TIMEOUT = 60.0

_P = ctypes.c_void_p
_I = ctypes.c_int64
_INITIALIZE = (_P, _P, _P, _P, _I, _P, _I, _P, _I, _I, _P, _I, _P)
_PHASE1 = (_P, _I, _P, _I, _I, _P, _P, _P, _I, _I, ctypes.c_int)
_PHASE3 = (_P, _I, _P, _I, _I, _P, _P, _P, _I, _P, _I, ctypes.c_int)
_ENTRIES = {
    "repro_initialize": _INITIALIZE,
    "repro_phase1_i64": _PHASE1,
    "repro_phase1_f64": _PHASE1,
    "repro_phase3_i64": _PHASE3,
    "repro_phase3_f64": _PHASE3,
}

_lock = threading.Lock()
_tried = False
_lib: ctypes.CDLL | None = None
_why = ""


def load() -> ctypes.CDLL | None:
    """The loaded library, built on the first call; ``None`` when it
    cannot be built or loaded on this host."""
    global _tried, _lib, _why
    with _lock:
        if not _tried:
            _tried = True
            try:
                _lib = _build()
            except Exception as exc:  # any failure: the process runs numpy
                _lib, _why = None, _describe(exc)
        return _lib


def failure() -> str:
    """Why :func:`load` found no library ("" before it ran or when it
    found one)."""
    return _why


def _describe(exc: Exception) -> str:
    """One line: the exception, and what the compiler printed, if any."""
    stderr = (getattr(exc, "stderr", None) or b"").decode(errors="replace")
    return " ".join(f"{type(exc).__name__}: {exc} {stderr}".split())[:500]


def _compiler() -> list[str]:
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _cache_dirs() -> list[Path]:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return [
        Path(base) / "repro-c90",
        Path(tempfile.gettempdir()) / f"repro-c90-{os.getuid()}",
    ]


def _private(path: Path) -> bool:
    """Create ``path`` if needed; whether it is a directory this user
    owns and no group or other user can write to."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = os.lstat(path)
    except OSError:
        return False
    return (
        stat.S_ISDIR(st.st_mode)
        and st.st_uid == os.getuid()
        and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    )


def _build() -> ctypes.CDLL:
    source = SOURCE.read_bytes()
    cc = _compiler()
    key = hashlib.sha256(
        b"\0".join([source, *(s.encode() for s in (*cc, *FLAGS, platform.machine()))])
    ).hexdigest()[:32]
    cache = next((d for d in _cache_dirs() if _private(d)), None)
    if cache is None:
        raise OSError("no cache directory that only this user can write")
    lib = cache / f"lockstep-{key}.so"
    if not lib.exists():
        fd, tmp = tempfile.mkstemp(dir=cache, prefix=".lockstep-", suffix=".so")
        os.close(fd)
        try:
            subprocess.run(
                [*cc, *FLAGS, "-o", tmp, str(SOURCE)],
                check=True,
                capture_output=True,
                timeout=COMPILE_TIMEOUT,
            )
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    handle = ctypes.CDLL(str(lib))
    for name, argtypes in _ENTRIES.items():
        fn = getattr(handle, name)
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int
    return handle
