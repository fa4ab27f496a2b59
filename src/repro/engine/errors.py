"""Per-request error channel: structured failures for the serving path.

The paper's load-balancing insight applies to requests too: one bad
list must not empty the vector for everyone else.  This module is the
contract:

* :class:`RequestError` — the structured description of why one
  request failed (a stable machine-readable ``code``, a human-readable
  ``message``, the ``phase`` the failure was caught in, and the name
  of the underlying exception when one was trapped).  It travels on
  :attr:`ScanResponse.error <repro.engine.queue.ScanResponse>` with
  ``ok=False`` while every healthy request in the batch still gets its
  result.
* :class:`EngineRequestError` — the exception the *result-returning*
  conveniences (``Engine.scan``, ``Engine.rank``, ``Engine.map_scan``)
  raise when the underlying request failed;
  it carries the structured error so callers never lose the code.
* :func:`validate_request` — the probe-time validator: value arrays
  whose shape disagrees with the operator, dtypes the operator cannot
  combine, and NaN values under NaN-hostile operators (``min``/``max``)
  are all rejected *before* they can poison a fused shard.  The list
  structure is left to the scan kernels, which prove it (a fused shard
  with a bad member is retried with every member alone, so its
  shard-mates still get their results).

Error codes
-----------

==================  ==================================================
``bad-structure``   the successor array does not encode a valid list
                    (found by the scan kernels, phase ``execute``)
``bad-shape``       value array shape disagrees with the list length
                    or the operator's ``value_width``
``bad-dtype``       value dtype is not numeric/boolean (e.g. object
                    arrays, whose fingerprints would not even be
                    deterministic)
``nan-values``      NaN values under a NaN-hostile operator
``op-mismatch``     the operator's ``combine`` cannot process the
                    values (probed on a one-element slice)
``fingerprint``     the request could not be fingerprinted
``execution``       the scan kernel raised while executing the request
``shutdown``        the engine closed before the request executed
                    (``Engine.close()`` answers still-queued requests
                    with this instead of dropping them)
==================  ==================================================

The serving front-end (``repro.serve``) reuses this type for failures
that happen before a request ever reaches the engine, with its own
codes: ``bad-message`` (unparseable frame), ``bad-field`` (parseable
but invalid request payload), ``rate-limited`` (per-client token
bucket or in-flight cap exceeded) and ``overloaded`` (submission queue
saturated; the response carries a ``retry_after`` hint).  One error
shape end to end means a client handles a validation failure, a
quarantined kernel crash and a load-shed rejection identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.operators import Operator
from .queue import ScanRequest

__all__ = [
    "RequestError",
    "EngineRequestError",
    "validate_request",
]


@dataclass(frozen=True)
class RequestError:
    """Why one request failed, in structured form.

    Attributes
    ----------
    code:
        Stable machine-readable identifier (see the module table).
    message:
        Human-readable detail for logs and CLIs.
    phase:
        ``"validate"`` (caught before execution) or ``"execute"``
        (the kernel raised and the request was quarantined).
    exception:
        Class name of the trapped exception, when there was one.
    """

    code: str
    message: str
    phase: str
    exception: str | None = None

    @classmethod
    def from_exception(
        cls, exc: BaseException, code: str, phase: str
    ) -> "RequestError":
        """Wrap a trapped exception into a structured error."""
        return cls(
            code=code,
            message=str(exc) or exc.__class__.__name__,
            phase=phase,
            exception=exc.__class__.__name__,
        )


class EngineRequestError(RuntimeError):
    """A request served through a result-returning convenience failed.

    ``Engine.run_batch`` never raises for a single bad request — it
    returns ``ok=False`` responses.  The conveniences that return bare
    arrays (``Engine.scan``, ``Engine.rank``, ``Engine.map_scan``) have
    no response to attach the error to,
    so they raise this exception instead, carrying the structured
    :class:`RequestError` as :attr:`error`.
    """

    def __init__(self, error: RequestError, request_id: int = 0) -> None:
        self.error = error
        self.request_id = request_id
        super().__init__(
            f"request {request_id} failed during {error.phase} "
            f"[{error.code}]: {error.message}"
        )


def validate_request(request: ScanRequest) -> RequestError | None:
    """Probe one request's values before execution; ``None`` means clean.

    Checks, in order:

    1. value-array shape against the list length and the operator's
       ``value_width``,
    2. value dtype (object/string arrays are rejected outright),
    3. NaN values under a NaN-hostile operator,
    4. a one-element ``op.combine`` probe, which catches
       operator/dtype mismatches (e.g. ``xor`` over floats) without
       running the full scan.

    Returns the first :class:`RequestError` found, so a caller can
    surface it on the response instead of letting the kernel raise
    mid-shard.
    """
    op: Operator = request.op
    values = np.asarray(request.lst.values)
    width = op.value_width
    if width:
        if values.ndim != 2 or values.shape != (request.n, width):
            return RequestError(
                code="bad-shape",
                message=(
                    f"operator {op.name!r} needs values of shape "
                    f"({request.n}, {width}); got {values.shape}"
                ),
                phase="validate",
            )
    elif values.ndim != 1 or values.shape[0] != request.n:
        return RequestError(
            code="bad-shape",
            message=(
                f"values must have shape ({request.n},) for a "
                f"{request.n}-node list; got {values.shape}"
            ),
            phase="validate",
        )

    if not (np.issubdtype(values.dtype, np.number) or values.dtype == np.bool_):
        return RequestError(
            code="bad-dtype",
            message=f"values dtype {values.dtype} is not numeric or boolean",
            phase="validate",
        )

    if (
        op.nan_hostile
        and np.issubdtype(values.dtype, np.floating)
        and bool(np.isnan(values).any())
    ):
        return RequestError(
            code="nan-values",
            message=(
                f"values contain NaN, which poisons the NaN-hostile "
                f"operator {op.name!r}"
            ),
            phase="validate",
        )

    try:
        probe = values[:1]
        op.combine(probe, probe)
    except Exception as exc:
        return RequestError.from_exception(exc, code="op-mismatch", phase="validate")
    return None
