"""Pluggable compiled-kernel backends for the hot scan loops.

See ``kernels.backend`` for the backend matrix and how a process
selects its backend, ``kernels.pairs`` for the ``(companion, cross, plus)``
operator-pair formulation, ``kernels.loops`` for the loop kernels
themselves, and ``kernels.clib`` for how the ``c`` backend's loops
(``lockstep.c``) are built.  Documentation: ``docs/kernels.md``.
"""

from .backend import (
    ENV_VAR,
    CBackend,
    KernelBackend,
    NumbaBackend,
    NumpyBackend,
    PythonLoopBackend,
    available_backends,
    default_backend_name,
    resolve_backend,
)
from .loops import BLOCK, HAVE_NUMBA
from .pairs import PairSpec, pair_for

__all__ = [
    "ENV_VAR",
    "CBackend",
    "KernelBackend",
    "NumbaBackend",
    "NumpyBackend",
    "PythonLoopBackend",
    "available_backends",
    "default_backend_name",
    "resolve_backend",
    "BLOCK",
    "HAVE_NUMBA",
    "PairSpec",
    "pair_for",
]
