"""Embedding-as-a-service: the resident evaluator and its HTTP front end.

:class:`ReproService` is the long-running core: it owns **one** warm
:class:`~repro.runtime.context.ExecutionContext` — resident
:class:`~repro.runtime.cache.ConstructionCache`, cached graph arrays,
batched evaluation on — for the whole process lifetime, and answers
requests through the request coalescer (:mod:`repro.service.coalescer`):
each batch — the requests that arrived before a tick of the window clock —
is converted to survey scenarios and evaluated by
:func:`repro.survey.runner.evaluate_shard`, i.e. grouped by
``(guest kind+shape, host kind+shape)`` signature and answered by one
ragged ``stacked_dilation_summary`` call over every signature of the
batch, one ``stacked_congestion`` call per signature when congestion is
asked for, and one vectorized event loop for the simulations.
Responses are therefore byte-identical to the per-request reference path —
the same contract the batched survey layer pins.

Observability: every request's end-to-end latency (queue wait included),
batch-size counters from the coalescer and the resident cache's hit/miss
traffic are exposed on ``GET /stats``.

Persistence: with a ``cache_path``, the resident cache is snapshotted
atomically (temp file + ``os.replace``, see :mod:`repro.utils.atomicio`)
at most every ``snapshot_interval`` seconds — after the batch that crossed
the interval — and once more on :meth:`ReproService.close`, so a killed
daemon restarts warm.

The HTTP front end is deliberately stdlib-only
(:class:`http.server.ThreadingHTTPServer`): handler threads block on the
coalescer future while the coalescer thread gathers their batch.  Each response
(headers and body) leaves in one buffered write on a ``TCP_NODELAY``
socket: two small writes with Nagle's algorithm on would hold the second
back until the client's delayed ACK of the first, ~40 ms on Linux.

Failure plane (PR 10): requests carry a per-request deadline
(:class:`ServiceTimeoutError` → HTTP 504), admission is bounded —
beyond ``max_pending`` outstanding requests the service sheds with
:class:`ServiceOverloadedError` → HTTP 503 + ``Retry-After`` — a watchdog
thread replaces a dead coalescer (counted in ``coalescer_restarts``), and
SIGTERM triggers a graceful drain: new work gets 503, in-flight batches
finish, the cache snapshots once more.  The ``service.handle`` chaos site
(:func:`repro.runtime.chaos.inject`) lets a seeded
:class:`~repro.runtime.chaos.ChaosPlan` exercise all of it on demand;
``GET /stats`` exposes the recovery counters.

Endpoints::

    POST /embed     {"guest": "torus:4,6", "host": "mesh:2,2,2,3", ...}
    POST /simulate  {"guest": ..., "host": ..., "strategy": ..., "traffic": ...}
    POST /invoke    {"op": "embed"|"simulate", ...}   (explicit-op form)
    GET  /stats     counters: latency quantiles, batch sizes, cache traffic
    GET  /health    liveness probe
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple

from ..runtime.cache import ConstructionCache
from ..runtime.chaos import chaos_counters, raise_fault
from ..runtime.context import ExecutionContext, use_context
from ..survey.runner import SurveyOptions, evaluate_shard
from ..survey.store import SurveyRecord
from .coalescer import RequestCoalescer
from .protocol import ProtocolError, ServiceRequest

__all__ = [
    "DEFAULT_PORT",
    "ReproService",
    "ServiceHTTPServer",
    "ServiceOverloadedError",
    "ServiceTimeoutError",
    "serve",
]

#: Default TCP port of ``repro serve`` (and of the client SDK).
DEFAULT_PORT = 8642


class ServiceOverloadedError(RuntimeError):
    """The admission queue is full (or the service is draining); retry later.

    Mapped to HTTP 503 with a ``Retry-After`` header by the front end, which
    is what the client SDK's backoff keys on.
    """

    def __init__(self, message: str, retry_after: float = 0.5):
        super().__init__(message)
        self.retry_after = retry_after


class ServiceTimeoutError(RuntimeError):
    """A request missed its per-request deadline; mapped to HTTP 504."""


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-quantile of an ascending sequence.

    The value of rank ``ceil(q * n)`` (1-based): the smallest value with at
    least a ``q`` share of the sequence at or below it.
    """
    if not sorted_values:
        return 0.0
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[min(len(sorted_values), max(1, rank)) - 1]


class ServiceStats:
    """Thread-safe request/latency counters of one service instance."""

    def __init__(self, latency_window: int = 4096):
        self._lock = threading.Lock()
        self.started_at = time.time()
        self.requests = 0
        self.failures = 0  # futures that resolved with an exception
        self.shed = 0  # admission-control rejections (503)
        self.timeouts = 0  # per-request deadline misses (504)
        self._latencies: deque = deque(maxlen=latency_window)

    def observe_request(self, seconds: float, failed: bool = False) -> None:
        with self._lock:
            self.requests += 1
            if failed:
                self.failures += 1
            else:
                self._latencies.append(seconds)

    def observe_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def observe_timeout(self) -> None:
        with self._lock:
            self.timeouts += 1

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            latencies = sorted(self._latencies)
            return {
                "uptime_seconds": round(time.time() - self.started_at, 3),
                "requests": self.requests,
                "failures": self.failures,
                "shed": self.shed,
                "timeouts": self.timeouts,
                "latency_ms": {
                    "count": len(latencies),
                    "p50": round(_quantile(latencies, 0.50) * 1e3, 3),
                    "p90": round(_quantile(latencies, 0.90) * 1e3, 3),
                    "p99": round(_quantile(latencies, 0.99) * 1e3, 3),
                    "max": round(latencies[-1] * 1e3, 3) if latencies else 0.0,
                },
            }


class ReproService:
    """The resident evaluator: one warm context, one coalescer, counters.

    Parameters
    ----------
    backend:
        Runtime backend of the resident context (``"auto"`` resolves to the
        array kernels; the loop backend still serves, through the
        per-scenario reference path).
    cache / cache_path:
        The resident construction cache, or a pickle path to warm-start it
        from (and snapshot it back to).  With neither, a fresh in-memory
        cache lives for the service lifetime.
    window / max_batch:
        Coalescing knobs, forwarded to :class:`RequestCoalescer`: batches
        dispatch on a clock ticking every ``window`` seconds (default 10 ms;
        ``0`` dispatches at once), each with every request queued by then.
    snapshot_interval:
        Minimum seconds between periodic cache snapshots (``cache_path``
        only); ``0`` snapshots after every batch.
    max_pending:
        Admission-queue bound: requests arriving while this many are already
        outstanding are shed with :class:`ServiceOverloadedError` (HTTP 503
        + ``Retry-After``) instead of growing an unbounded backlog.
    request_timeout:
        Per-request deadline in seconds for :meth:`handle`; ``None`` waits
        forever (the pre-chaos behaviour).
    chaos:
        A chaos spec string or :class:`~repro.runtime.chaos.ChaosPlan` for
        the resident context — arms the ``service.handle`` and
        ``store.write`` injection points.
    watchdog_interval:
        Seconds between liveness checks of the coalescer thread; a dead
        coalescer (its thread ended) is replaced and counted in
        ``coalescer_restarts``.  ``0`` disables the watchdog.
    """

    def __init__(
        self,
        *,
        backend: str = "auto",
        cache: Optional[ConstructionCache] = None,
        cache_path: Optional[str] = None,
        window: float = 0.01,
        max_batch: int = 256,
        snapshot_interval: float = 30.0,
        max_pending: int = 1024,
        request_timeout: Optional[float] = 30.0,
        chaos=None,
        watchdog_interval: float = 0.5,
    ):
        if cache is None:
            cache = (
                ConstructionCache.load(cache_path)
                if cache_path is not None
                else ConstructionCache()
            )
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.context = ExecutionContext(
            backend=backend, cache=cache, batch=True, chaos=chaos
        )
        self.cache_path = cache_path
        self.snapshot_interval = snapshot_interval
        self.max_pending = max_pending
        self.request_timeout = request_timeout
        self._last_snapshot = time.monotonic()
        self._snapshotted_entries = len(cache)
        self.stats = ServiceStats()
        self._coalescer_kwargs = {"window": window, "max_batch": max_batch}
        self._coalescer_lock = threading.Lock()
        self.coalescer = RequestCoalescer(
            self._evaluate_batch, **self._coalescer_kwargs
        )
        self.coalescer_restarts = 0
        self._closed = False
        self._draining = False
        self._chaos_baseline = chaos_counters()
        self._watchdog: Optional[threading.Thread] = None
        if watchdog_interval > 0:
            self._watchdog_interval = watchdog_interval
            self._watchdog = threading.Thread(
                target=self._watch_coalescer,
                name="repro-service-watchdog",
                daemon=True,
            )
            self._watchdog.start()

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    @property
    def draining(self) -> bool:
        """True once :meth:`begin_drain` ran — new work is being refused."""
        return self._draining

    def submit(self, request: ServiceRequest):
        """Enqueue a request; the future resolves to ``(record, batch_size)``.

        Front door of the recovery plane: refuses work while draining,
        sheds when the admission queue is full, and carries the
        ``service.handle`` chaos injection point (a ``request_error`` fault
        fails the request exactly as an evaluator bug would; ``slow_io``
        stretches it).
        """
        if self._draining or self._closed:
            raise ServiceOverloadedError(
                "the service is draining and accepts no new requests",
                retry_after=1.0,
            )
        coalescer = self.coalescer
        if coalescer.pending_count() >= self.max_pending:
            self.stats.observe_shed()
            raise ServiceOverloadedError(
                f"admission queue is full ({self.max_pending} requests pending)",
                retry_after=0.5,
            )
        # The plan lives on the *resident* context (handler threads never
        # enter use_context), so fire it directly rather than via inject().
        plan = self.context.chaos
        if plan is not None:
            raise_fault(
                plan.fire("service.handle", kinds=("request_error", "slow_io")),
                "service.handle",
            )
        started = time.perf_counter()
        future = coalescer.submit(request)

        def _observe(done) -> None:
            self.stats.observe_request(
                time.perf_counter() - started, failed=done.exception() is not None
            )

        future.add_done_callback(_observe)
        return future

    def handle(
        self, request: ServiceRequest, timeout: Optional[float] = None
    ) -> Tuple[SurveyRecord, int]:
        """Blocking :meth:`submit` with a per-request deadline.

        ``timeout`` overrides the service-wide ``request_timeout``; a miss
        raises :class:`ServiceTimeoutError` (HTTP 504) and is counted in
        the ``timeouts`` stat.  The batch itself keeps evaluating — the
        deadline bounds the *caller's* wait, it cannot interrupt the
        evaluator mid-kernel.
        """
        deadline = timeout if timeout is not None else self.request_timeout
        future = self.submit(request)
        try:
            return future.result(timeout=deadline)
        except FutureTimeoutError:
            self.stats.observe_timeout()
            raise ServiceTimeoutError(
                f"request missed its {deadline:g}s deadline"
            ) from None

    # ------------------------------------------------------------------ #
    # Watchdog
    # ------------------------------------------------------------------ #
    def _watch_coalescer(self) -> None:
        """Replace a dead coalescer (its thread ended) with a fresh one."""
        while not self._closed:
            time.sleep(self._watchdog_interval)
            if self._closed or self._draining:
                continue
            suspect = self.coalescer
            if suspect.is_alive():
                continue
            with self._coalescer_lock:
                if self._closed or self.coalescer is not suspect:
                    continue
                self.coalescer = RequestCoalescer(
                    self._evaluate_batch, **self._coalescer_kwargs
                )
                self.coalescer_restarts += 1
            # Fail whatever the dead coalescer stranded; callers see a
            # CoalescerClosed error and the client SDK retries against the
            # replacement.
            suspect.close(timeout=1.0)

    def _evaluate_batch(
        self, requests: Sequence[ServiceRequest]
    ) -> List[Tuple[SurveyRecord, int]]:
        """Answer one coalesced batch through the batched survey evaluator.

        Requests become scenarios and run as one shard (grouped by signature
        and stacked inside :func:`evaluate_shard`); the congestion flag is
        an evaluation *option*, not part of the stacking signature, so the
        batch splits into at most two shard passes.  Runs on the coalescer
        thread — the only thread that touches the resident cache — under the
        resident context.
        """
        records: List[Optional[SurveyRecord]] = [None] * len(requests)
        for congestion in (False, True):
            positions = [
                index
                for index, request in enumerate(requests)
                if request.congestion is congestion
            ]
            if not positions:
                continue
            scenarios = [requests[index].scenario() for index in positions]
            options = SurveyOptions(
                workers=1, shard_size=len(scenarios), with_congestion=congestion
            )
            with use_context(self.context):
                shard_records = evaluate_shard(scenarios, options)
            for index, record in zip(positions, shard_records):
                records[index] = record
        # Snapshot under the resident context too, so a chaos plan's
        # store.write faults exercise the snapshot path.
        with use_context(self.context):
            self._maybe_snapshot()
        return [(record, len(requests)) for record in records]

    # ------------------------------------------------------------------ #
    # Cache snapshots
    # ------------------------------------------------------------------ #
    def _maybe_snapshot(self, force: bool = False) -> bool:
        """Atomically snapshot the resident cache when due; True if written.

        Called on the coalescer thread after each batch (and from
        :meth:`close`), so saves never race evaluation.  Skips when nothing
        new was memoized since the last snapshot.
        """
        cache = self.context.cache
        if self.cache_path is None or cache is None:
            return False
        if not force:
            if time.monotonic() - self._last_snapshot < self.snapshot_interval:
                return False
        if len(cache) == self._snapshotted_entries:
            return False
        cache.save(self.cache_path)
        self._last_snapshot = time.monotonic()
        self._snapshotted_entries = len(cache)
        return True

    # ------------------------------------------------------------------ #
    # Observability and lifecycle
    # ------------------------------------------------------------------ #
    def stats_snapshot(self) -> Dict[str, object]:
        """The ``GET /stats`` document."""
        document = self.stats.snapshot()
        document["coalescer"] = self.coalescer.batch_stats()
        document["backend"] = self.context.resolved_backend()
        cache = self.context.cache
        document["cache"] = {
            "constructions": cache.construction_count if cache is not None else 0,
            "entries": len(cache) if cache is not None else 0,
            "hits": cache.hits if cache is not None else 0,
            "misses": cache.misses if cache is not None else 0,
            "path": self.cache_path,
        }
        chaos_faults = {
            label: count - self._chaos_baseline.get(label, 0)
            for label, count in chaos_counters().items()
            if count - self._chaos_baseline.get(label, 0)
        }
        document["recovery"] = {
            "shed": self.stats.shed,
            "timeouts": self.stats.timeouts,
            "coalescer_restarts": self.coalescer_restarts,
            "pending": self.coalescer.pending_count(),
            "max_pending": self.max_pending,
            "draining": self._draining,
            "chaos": self.context.chaos.token if self.context.chaos else None,
            "chaos_faults": chaos_faults,
        }
        return document

    def begin_drain(self) -> None:
        """Refuse new requests (503 + ``Retry-After``); in-flight ones finish.

        First half of the graceful-shutdown handshake: the SIGTERM handler
        calls this, lets the HTTP server stop accepting, then calls
        :meth:`close` — which waits for the in-flight batch and snapshots
        the cache.
        """
        self._draining = True

    def close(self) -> None:
        """Drain, stop the coalescer and take a final cache snapshot."""
        if self._closed:
            return
        self._draining = True
        self._closed = True
        with self._coalescer_lock:
            coalescer = self.coalescer
        coalescer.close()
        self._maybe_snapshot(force=True)

    def __enter__(self) -> "ReproService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# HTTP front end
# ---------------------------------------------------------------------- #
class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ReproService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: ReproService):
        super().__init__(address, _RequestHandler)
        self.service = service


class _RequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: ServiceHTTPServer
    # One send per response: headers and body collect in the buffered wfile,
    # which handle_one_request() flushes after each do_* (finish() on
    # close), and TCP_NODELAY lets that send leave at once (a response past
    # the 8 KiB buffer takes more sends, none waiting on an ACK).  This is
    # the pairing socketserver.StreamRequestHandler documents.
    disable_nagle_algorithm = True
    wbufsize = -1

    # The daemon logs through /stats, not per-request stderr lines.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def handle_expect_100(self) -> bool:
        # The interim "100 Continue" must not wait in the buffered wfile for
        # the final response: the client holds the body back until it sees it.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def _send_json(
        self,
        status: int,
        payload: Dict[str, object],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path == "/health":
            if self.server.service.draining:
                self._send_json(
                    503,
                    {"ok": False, "status": "draining"},
                    headers={"Retry-After": "1"},
                )
            else:
                self._send_json(200, {"ok": True, "status": "serving"})
        elif self.path == "/stats":
            self._send_json(
                200, {"ok": True, "stats": self.server.service.stats_snapshot()}
            )
        else:
            self._send_json(404, {"ok": False, "error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        # Read the body before any answer: on a kept-alive connection, unread
        # body bytes would parse as the next request.
        length = self.headers.get("Content-Length", "0")
        if not (length.isascii() and length.isdigit()):
            # No byte count to read past (rfile.read(-1) would block until
            # EOF): answer once and close.
            self._send_json(
                400,
                {"ok": False, "error": f"invalid Content-Length {length!r}"},
                headers={"Connection": "close"},  # sets close_connection
            )
            return
        body = self.rfile.read(int(length))
        if self.path not in ("/embed", "/simulate", "/invoke"):
            self._send_json(404, {"ok": False, "error": f"unknown path {self.path!r}"})
            return
        try:
            payload = json.loads(body or b"{}")
            if self.path != "/invoke" and isinstance(payload, dict):
                payload.setdefault("op", self.path[1:])
            request = ServiceRequest.from_dict(payload)
        except (ProtocolError, ValueError) as error:
            self._send_json(400, {"ok": False, "error": str(error)})
            return
        try:
            record, batch_size = self.server.service.handle(request)
        except ServiceOverloadedError as error:
            self._send_json(
                503,
                {"ok": False, "error": str(error)},
                headers={"Retry-After": f"{error.retry_after:g}"},
            )
            return
        except ServiceTimeoutError as error:
            self._send_json(504, {"ok": False, "error": str(error)})
            return
        except Exception as error:  # noqa: BLE001 - surface, don't kill the thread
            self._send_json(
                500, {"ok": False, "error": f"{type(error).__name__}: {error}"}
            )
            return
        self._send_json(
            200,
            {
                "ok": True,
                "record": record.as_dict(),
                "meta": {"batch_size": batch_size, "coalesced": batch_size > 1},
            },
        )


def serve(
    service: ReproService, host: str = "127.0.0.1", port: int = DEFAULT_PORT
) -> ServiceHTTPServer:
    """Bind the HTTP front end; the caller drives ``serve_forever()``.

    ``port=0`` binds an ephemeral port (tests and benchmarks); the bound
    address is ``server.server_address``.
    """
    return ServiceHTTPServer((host, port), service)
