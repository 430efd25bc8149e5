"""Which requests the front-end pins to a worker, and tenant quotas.

The fleet is a least-loaded pool: any live worker can serve any request
that names a spec or a ``net_key``, because every worker
rebuilds trained models and compiled nets from the shared zoo. Three
warm objects live only in the memory of the worker that built them — a
registered crossbar, prepared weights and a mitigated classifier (the
registry's ``crossbars``, ``engines`` and ``mitigated`` tiers) — so a
request naming one by key must reach that worker. The front-end learns
these pins from the registration responses (:data:`PIN_FIELDS`) and
parses a request body only on the endpoints that accept such a key
(:data:`KEYED_ENDPOINTS`).
"""

from __future__ import annotations

#: POST endpoints the front-end routes to workers.
ROUTED_ENDPOINTS = ("/v1/models", "/v1/crossbars", "/v1/predict_fr",
                    "/v1/predict_currents", "/v1/weights", "/v1/matmul",
                    "/v1/mitigate", "/v1/mitigated_predict", "/v1/nets",
                    "/v1/net_predict")

#: Registration endpoints, by the response field naming the memory-only
#: key they return; the front-end pins that key to the answering worker.
PIN_FIELDS = {"/v1/crossbars": "crossbar_key",
              "/v1/weights": "weights_key",
              "/v1/mitigate": "mitigated_key"}

#: Endpoints that accept a memory-only key, by the request field read.
KEYED_ENDPOINTS = {"/v1/predict_fr": "crossbar_key",
                   "/v1/predict_currents": "crossbar_key",
                   "/v1/matmul": "weights_key",
                   "/v1/mitigated_predict": "mitigated_key"}


def pinned_key(body, field: str) -> str | None:
    """The memory-only key a parsed request body names, if any.

    Never raises: a body that is not an object, or whose key is not a
    non-empty string, reads as unpinned and goes to the least-loaded
    worker, whose strict protocol check produces the authoritative 400.
    """
    if not isinstance(body, dict):
        return None
    key = body.get(field)
    return key if isinstance(key, str) and key else None


class TokenBucket:
    """Per-tenant request quota: ``rate`` tokens/s, ``burst`` capacity.

    Time is injected by the caller (the front-end passes its event
    loop's monotonic clock), keeping the bucket trivially testable.
    """

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float, now: float):
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp = now

    def admit(self, now: float) -> bool:
        """Take one token if available; refills lazily since last call."""
        if now > self.stamp:
            self.tokens = min(self.burst,
                              self.tokens + (now - self.stamp) * self.rate)
            self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False
