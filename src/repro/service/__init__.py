"""Embedding-as-a-service — the serving tier of the reproduction.

A long-running daemon (``repro serve``) keeps one warm
:class:`~repro.runtime.cache.ConstructionCache` and the cached graph arrays
resident and answers embed/measure/simulate queries over HTTP.  The key
mechanism is the **request coalescer**: batches leave on the ticks
of a fixed window clock (10 ms by default), each with every request queued
by then — including all that queued while the previous batch evaluated —
and each batch is grouped by ``(guest kind+shape, host kind+shape)``
signature and measured by the batched survey layer in one ragged kernel
pass over all its signatures, with responses byte-identical to the
per-request reference path.  Each response leaves in
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

import importlib

#: Each export and the submodule it lives in.  The package resolves them on
#: first use, so importing :mod:`repro.service.protocol` -- the graph-spec
#: grammar that the CLI and :mod:`repro.api` parse with -- loads neither
#: the HTTP server nor the client.
_EXPORTS = {
    "OPS": "protocol",
    "DEFAULT_PORT": "server",
    "DEFAULT_RETRY": "client",
    "CoalescerClosed": "coalescer",
    "ProtocolError": "protocol",
    "RequestCoalescer": "coalescer",
    "ReproService": "server",
    "ServiceClient": "client",
    "ServiceError": "client",
    "ServiceHTTPServer": "server",
    "ServiceOverloadedError": "server",
    "ServiceRequest": "protocol",
    "ServiceTimeoutError": "server",
    "parse_graph_spec": "protocol",
    "serve": "server",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
