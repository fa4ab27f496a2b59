"""Per-client fairness: token buckets and in-flight caps.

A shared batching engine has a classic failure mode: one greedy client
fills the submission queue and every other client's latency collapses
— the request-level analogue of the load imbalance the paper's
Section 3 splitter strategy exists to prevent.  The serving layer
therefore polices admission per client *before* a request reaches the
queue:

* a **token bucket** bounds each client's sustained request rate while
  allowing bursts (capacity ``burst``, refill ``rate`` tokens/second);
* an **in-flight cap** bounds how many of one client's requests may be
  admitted-but-unanswered at once, so a client cannot monopolize the
  next batch even while under its rate.

Rejections are *shed*, not queued: the caller turns them into
structured ``rate-limited`` responses with a ``retry_after`` hint
(time until the bucket refills), so a well-behaved client can pace
itself without guessing.

This module is pure decision logic — every method takes ``now`` as an
argument; no wall clock is read here (``injectable-clock`` holds for
the serving layer).
"""

from __future__ import annotations

__all__ = ["TokenBucket", "ClientGovernor"]


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    Starts full.  ``try_take`` either takes one token (returns 0.0) or
    returns the seconds until one will be available — the caller's
    ``retry_after`` hint.
    """

    __slots__ = ("rate", "burst", "tokens", "_last")

    def __init__(self, rate: float, burst: float):
        if rate <= 0.0:
            raise ValueError("rate must be positive")
        if burst < 1.0:
            raise ValueError("burst must be >= 1")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self._last: float | None = None

    def _refill(self, now: float) -> None:
        if self._last is not None and now > self._last:
            self.tokens = min(self.burst, self.tokens + (now - self._last) * self.rate)
        self._last = now

    def try_take(self, now: float) -> float:
        """Take one token at ``now``; 0.0 on success, else seconds to wait."""
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate

    @property
    def full(self) -> bool:
        return self.tokens >= self.burst


class _ClientState:
    __slots__ = ("bucket", "inflight")

    def __init__(self, bucket: TokenBucket | None):
        self.bucket = bucket
        self.inflight = 0


class ClientGovernor:
    """Admission policy across clients: buckets + in-flight caps.

    Parameters
    ----------
    rate / burst:
        Token-bucket parameters applied to every client
        (``rate=None`` disables rate limiting).
    max_inflight:
        Per-client cap on admitted-but-unanswered requests
        (``None`` = unlimited).

    ``admit`` returns ``None`` on success (the caller must later call
    ``settle`` for the same client exactly once) or a
    ``(code, retry_after)`` pair naming the structured rejection —
    ``retry_after`` is ``None`` when no refill estimate exists (the
    in-flight cap clears when a response leaves, which the bucket
    cannot predict).
    """

    def __init__(
        self,
        rate: float | None = None,
        burst: float = 32.0,
        max_inflight: int | None = None,
    ):
        if rate is not None and rate <= 0.0:
            raise ValueError("rate must be positive (or None)")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1 (or None)")
        self.rate = rate
        self.burst = burst
        self.max_inflight = max_inflight
        self._clients: dict[object, _ClientState] = {}
        self.admitted = 0
        self.rejected = 0

    def _state(self, client: object) -> _ClientState:
        state = self._clients.get(client)
        if state is None:
            bucket = (
                TokenBucket(self.rate, self.burst) if self.rate is not None else None
            )
            state = self._clients[client] = _ClientState(bucket)
        return state

    def admit(self, client: object, now: float) -> tuple[str, float | None] | None:
        """Admit one request from ``client`` at ``now``, or reject it."""
        state = self._state(client)
        if (
            self.max_inflight is not None
            and state.inflight >= self.max_inflight
        ):
            self.rejected += 1
            return ("rate-limited", None)
        if state.bucket is not None:
            wait = state.bucket.try_take(now)
            if wait > 0.0:
                self.rejected += 1
                return ("rate-limited", wait)
        state.inflight += 1
        self.admitted += 1
        return None

    def settle(self, client: object) -> None:
        """A previously admitted request was answered (or failed)."""
        state = self._clients.get(client)
        if state is not None and state.inflight > 0:
            state.inflight -= 1

    def forget(self, client: object) -> None:
        """Drop a departed client's idle state (keeps the map bounded)."""
        state = self._clients.get(client)
        if state is not None and state.inflight == 0:
            del self._clients[client]

    def inflight(self, client: object) -> int:
        state = self._clients.get(client)
        return state.inflight if state is not None else 0

    def snapshot(self) -> dict[str, object]:
        """JSON-safe gauges for the ``/stats`` endpoint."""
        return {
            "clients": len(self._clients),
            "admitted": self.admitted,
            "rejected": self.rejected,
            "inflight": sum(s.inflight for s in self._clients.values()),
            "rate": self.rate,
            "burst": self.burst if self.rate is not None else None,
            "max_inflight": self.max_inflight,
        }
