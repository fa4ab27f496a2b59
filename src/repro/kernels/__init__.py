"""The kernel backends for the hot scan loops: the NumPy reference and
the compiled ``c`` loops.

See ``kernels.backend`` for the two backends and how a process selects
one, and ``kernels.clib`` for how the ``c`` backend's loops
(``lockstep.c``) are built.  Documentation: ``docs/kernels.md``.
"""

from .backend import (
    ENV_VAR,
    CBackend,
    KernelBackend,
    NumpyBackend,
    available_backends,
    default_backend_name,
    resolve_backend,
)

__all__ = [
    "ENV_VAR",
    "CBackend",
    "KernelBackend",
    "NumpyBackend",
    "available_backends",
    "default_backend_name",
    "resolve_backend",
]
