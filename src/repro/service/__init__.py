"""Embedding-as-a-service — the serving tier of the reproduction.

A long-running daemon (``repro serve``) keeps one warm
:class:`~repro.runtime.cache.ConstructionCache` and the cached graph arrays
resident and answers embed/measure/simulate queries over HTTP.  The key
mechanism is the **request coalescer**: batches leave on the ticks
of a fixed window clock (10 ms by default), each with every request queued
by then — including all that queued while the previous batch evaluated —
and each batch is grouped by ``(guest kind+shape, host kind+shape)``
signature, stacked into the batched survey layer's ``(batch, size)``
matrices and answered by one fused kernel pass, with responses
byte-identical to the per-request reference path.  Each response leaves in
one write on a ``TCP_NODELAY`` socket.

``protocol``
    The JSON wire format: :class:`~repro.service.protocol.ServiceRequest`
    and its lossless conversion to survey scenarios.
``coalescer``
    :class:`~repro.service.coalescer.RequestCoalescer` — one thread that
    collects each batch from a queue and evaluates it.
``server``
    :class:`~repro.service.server.ReproService` (the resident evaluator,
    periodic atomic cache snapshots, ``/stats`` counters) and the stdlib
    ThreadingHTTPServer front end.
``client``
    :class:`~repro.service.client.ServiceClient`, the thin SDK behind
    ``repro invoke``.
"""

from .client import DEFAULT_RETRY, ServiceClient, ServiceError
from .coalescer import CoalescerClosed, RequestCoalescer
from .protocol import OPS, ProtocolError, ServiceRequest, parse_graph_spec
from .server import (
    DEFAULT_PORT,
    ReproService,
    ServiceHTTPServer,
    ServiceOverloadedError,
    ServiceTimeoutError,
    serve,
)

__all__ = [
    "OPS",
    "DEFAULT_PORT",
    "DEFAULT_RETRY",
    "CoalescerClosed",
    "ProtocolError",
    "RequestCoalescer",
    "ReproService",
    "ServiceClient",
    "ServiceError",
    "ServiceHTTPServer",
    "ServiceOverloadedError",
    "ServiceRequest",
    "ServiceTimeoutError",
    "parse_graph_spec",
    "serve",
]
