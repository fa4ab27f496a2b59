"""Import the program from the checkout this benchmark sits in.

Every benchmark entry point calls :func:`bootstrap` before importing
numpy or ``repro``: it pins BLAS/OpenMP pools to one thread, clears the
environment switches that would change which code path runs, and puts
``<checkout>/src`` first on ``sys.path``.  Without the package sources
next to the benchmark it exits non-zero and prints no result.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Switches that select another kernel backend or turn on the runtime
#: sanitizers; the benchmark measures the default path.
_PATH_VARS = ("REPRO_KERNEL_BACKEND", "REPRO_SANITIZE")


def bootstrap() -> None:
    """Pin threads, clear path switches, import ``repro`` from ``src``."""
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    for var in _PATH_VARS:
        os.environ.pop(var, None)
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")
