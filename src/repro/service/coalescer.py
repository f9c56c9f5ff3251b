"""The request coalescer — many concurrent requests, one kernel pass.

The batched survey layer (:mod:`repro.survey.batch`) already answers *many
same-signature queries* in one fused stacked-kernel pass; what a server adds
is the gathering.  :class:`RequestCoalescer` runs one daemon thread that
collects individually submitted requests from a queue into batches and
evaluates each batch itself:

* batches leave on the ticks of a fixed *window* clock (default 10 ms):
  a batch dispatches at the first tick after its first request arrived —
  at most one window later, half a window on average for requests that
  arrive at random — with every request queued by then (up to
  ``max_batch``; a full batch leaves at once).  Ticks do not move with
  evaluation time, so while a batch's work fits in one window, clients
  that send their next request on each answer keep the clock's cadence
  whatever the host's speed;
* batching is opportunistic: a batch takes every request that queued while
  the previous batch evaluated, and a request whose tick passed during
  that evaluation leaves as soon as the evaluator is free.  Under
  sustained load batch sizes grow with throughput — natural backpressure,
  no tuning.  ``window=0`` dispatches at once;
* the thread that collects a batch also evaluates it, so evaluation is
  serialized (the evaluator owns shared mutable state — the resident
  construction cache).

Submission is thread-safe (``submit`` is called from HTTP handler threads)
and returns a ``concurrent.futures.Future`` that resolves to whatever the
evaluator produced for that request.  The coalescer never inspects results:
grouping by signature, stacking and record assembly all live in the
evaluator (:meth:`repro.service.server.ReproService._evaluate_batch` →
:func:`repro.survey.runner.evaluate_shard`), which keeps the coalesced path
byte-identical to the per-request reference by construction.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from concurrent.futures import Future
from typing import Callable, Dict, List, Sequence

__all__ = ["CoalescerClosed", "RequestCoalescer"]


def next_tick(moment: float, window: float) -> float:
    """The first tick at or after ``moment`` of a clock ticking every ``window``.

    ``window=0`` has no ticks: the answer is ``moment`` itself.
    """
    if window <= 0:
        return moment
    return math.ceil(moment / window) * window


class CoalescerClosed(RuntimeError):
    """Raised by :meth:`RequestCoalescer.submit` after :meth:`close`."""


class _Pending:
    """One submitted request waiting for its batch to evaluate."""

    __slots__ = ("request", "future", "enqueued_at")

    def __init__(self, request: object):
        self.request = request
        self.future: Future = Future()
        # time.monotonic() is the clock the coalescer's ticks are read on.
        self.enqueued_at = time.monotonic()


class RequestCoalescer:
    """Evaluate the requests that arrived between two clock ticks as one batch.

    Parameters
    ----------
    evaluate_batch:
        ``(requests) -> results`` — called on the coalescer thread with the
        collected requests (in arrival order) and expected to return one
        result per request, positionally.  A raised exception fails every
        future of the batch.
    window:
        Period, in seconds, of the clock batches dispatch on (default 10 ms):
        a request waits at most this long for its batch to leave.  ``0``
        dispatches at once.
    max_batch:
        Hard batch-size cap; a full batch dispatches before its tick.
    """

    def __init__(
        self,
        evaluate_batch: Callable[[Sequence[object]], Sequence[object]],
        *,
        window: float = 0.01,
        max_batch: int = 256,
    ):
        if not (math.isfinite(window) and window >= 0):
            raise ValueError(f"window must be finite and >= 0, got {window}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.window = window
        self.max_batch = max_batch
        self._evaluate_batch = evaluate_batch
        # Guards _closed, _outstanding and the batch counters.
        self._lock = threading.Lock()
        self._closed = False
        self._outstanding: set = set()
        # Pending requests, then one None from close() to stop the thread.
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self.batches = 0
        self.coalesced_batches = 0
        self.max_batch_size = 0
        self.requests_batched = 0
        self.batch_size_histogram: Dict[int, int] = {}
        self._thread = threading.Thread(
            target=self._run, name="repro-service-coalescer", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    # Coalescer thread
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while True:
            first = self._queue.get()
            if first is None:
                return
            batch = [first]
            deadline = next_tick(first.enqueued_at, self.window)
            while len(batch) < self.max_batch:
                remaining = deadline - time.monotonic()
                try:
                    if remaining > 0:
                        # A longer timed wait raises OverflowError.
                        remaining = min(remaining, threading.TIMEOUT_MAX)
                        item = self._queue.get(timeout=remaining)
                    else:
                        # The tick passed: take only what already queued,
                        # all that queued during the last evaluation included.
                        item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is None:  # the stop close() queued
                    break
                batch.append(item)
            if self._closed:
                return  # no batch evaluates after close(), which fails it
            # Evaluating before the next get is what makes a slow batch
            # back-pressure into a *bigger* next batch (requests keep
            # queueing meanwhile) instead of a pile-up of single requests.
            self._dispatch(batch)

    def _dispatch(self, batch: List[_Pending]) -> None:
        with self._lock:
            self.batches += 1
            self.requests_batched += len(batch)
            self.max_batch_size = max(self.max_batch_size, len(batch))
            if len(batch) > 1:
                self.coalesced_batches += 1
            size = len(batch)
            self.batch_size_histogram[size] = self.batch_size_histogram.get(size, 0) + 1
        try:
            results = list(self._evaluate_batch([item.request for item in batch]))
            if len(results) != len(batch):
                raise RuntimeError(
                    f"evaluator returned {len(results)} results for "
                    f"{len(batch)} requests"
                )
        except Exception as error:  # noqa: BLE001 - fail the whole batch's futures
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(error)
            return
        for item, result in zip(batch, results):
            if not item.future.done():
                item.future.set_result(result)

    # ------------------------------------------------------------------ #
    # Caller-facing API (any thread)
    # ------------------------------------------------------------------ #
    def submit(self, request: object) -> Future:
        """Enqueue a request; the future resolves to the evaluator's result.

        Raises :class:`CoalescerClosed` once closed, or once the coalescer
        thread has died (nothing would ever read the queue).
        """
        item = _Pending(request)
        item.future.add_done_callback(lambda _future: self._forget(item))
        with self._lock:
            if self._closed:
                raise CoalescerClosed("the coalescer is closed")
            if not self._thread.is_alive():
                raise CoalescerClosed("the coalescer thread is gone")
            self._outstanding.add(item)
            self._queue.put(item)
        return item.future

    def _forget(self, item: _Pending) -> None:
        with self._lock:
            self._outstanding.discard(item)

    def pending_count(self) -> int:
        """Requests submitted but not yet resolved (admission-control input)."""
        with self._lock:
            return len(self._outstanding)

    def is_alive(self) -> bool:
        """Can this coalescer still make progress on submitted requests?

        False once closed or once its thread has died — the signal the
        service watchdog polls to decide a restart is due.
        """
        return not self._closed and self._thread.is_alive()

    def batch_stats(self) -> Dict[str, object]:
        """Counters of the batches formed so far (thread-safe snapshot)."""
        with self._lock:
            mean = self.requests_batched / self.batches if self.batches else 0.0
            return {
                "batches": self.batches,
                "coalesced_batches": self.coalesced_batches,
                "max_batch_size": self.max_batch_size,
                "mean_batch_size": round(mean, 3),
                "batch_size_histogram": {
                    str(size): count
                    for size, count in sorted(self.batch_size_histogram.items())
                },
            }

    def close(self, timeout: float = 10.0) -> None:
        """Stop collecting, finish the in-flight batch, fail the rest.

        Bounded: if the thread does not exit within ``timeout`` (a wedged
        evaluator holding the in-flight batch), every request still pending
        fails with :class:`CoalescerClosed` instead of blocking its caller
        forever, and the thread is abandoned rather than joined.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(None)
        self._thread.join(timeout)
        note = " (evaluation thread is wedged)" if self._thread.is_alive() else ""
        with self._lock:
            stranded = list(self._outstanding)
        for item in stranded:
            if not item.future.done():
                item.future.set_exception(
                    CoalescerClosed(
                        "the coalescer closed before this request completed" + note
                    )
                )

    def __enter__(self) -> "RequestCoalescer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
