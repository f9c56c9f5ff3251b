"""The async request coalescer — many concurrent requests, one kernel pass.

The batched survey layer (:mod:`repro.survey.batch`) already answers *many
same-signature queries* in one fused stacked-kernel pass; what a server adds
is the gathering.  :class:`RequestCoalescer` runs a private asyncio event
loop on a background thread and turns a stream of individually submitted
requests into evaluation batches:

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
* the batch is handed to a single-threaded evaluation executor (the
  evaluator owns shared mutable state — the resident construction cache —
  so evaluation is deliberately serialized).

Submission is thread-safe (``submit`` is called from HTTP handler threads)
and returns a ``concurrent.futures.Future`` that resolves to whatever the
evaluator produced for that request.  The coalescer never inspects results:
grouping by signature, stacking and record assembly all live in the
evaluator (:meth:`repro.service.server.ReproService._evaluate_batch` →
:func:`repro.survey.runner.evaluate_shard`), which keeps the coalesced path
byte-identical to the per-request reference by construction.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence

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
        # time.monotonic() is the clock of the coalescer's event loop.
        self.enqueued_at = time.monotonic()


class RequestCoalescer:
    """Evaluate the requests that arrived between two clock ticks as one batch.

    Parameters
    ----------
    evaluate_batch:
        ``(requests) -> results`` — called on the evaluation thread with the
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
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.window = window
        self.max_batch = max_batch
        self._evaluate_batch = evaluate_batch
        self._closed = threading.Event()
        self._lock = threading.Lock()
        self._outstanding_lock = threading.Lock()
        self._outstanding: set = set()
        self.batches = 0
        self.coalesced_batches = 0
        self.max_batch_size = 0
        self.requests_batched = 0
        self.batch_size_histogram: Dict[int, int] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-eval"
        )
        self._loop = asyncio.new_event_loop()
        self._queue: Optional[asyncio.Queue] = None
        self._collector: Optional[asyncio.Task] = None
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-service-coalescer", daemon=True
        )
        self._thread.start()
        self._started.wait()

    # ------------------------------------------------------------------ #
    # Event-loop thread
    # ------------------------------------------------------------------ #
    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._queue = asyncio.Queue()
        self._collector = self._loop.create_task(self._collect())
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    async def _collect(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_event_loop()
        while True:
            first = await self._queue.get()
            batch: List[_Pending] = [first]
            deadline = next_tick(first.enqueued_at, self.window)
            # Everything that queued while the last batch evaluated.
            while len(batch) < self.max_batch and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            while len(batch) < self.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(await asyncio.wait_for(self._queue.get(), remaining))
                except asyncio.TimeoutError:
                    break
            # Await the evaluation so a slow batch back-pressures into a
            # *bigger* next batch (requests keep queueing meanwhile) instead
            # of a pile-up of queued single-request batches.  Evaluation
            # itself runs on the executor thread, never on the loop.
            try:
                await loop.run_in_executor(self._executor, self._dispatch, batch)
            except asyncio.CancelledError:
                # close() cancelled the collector mid-evaluation: the
                # executor still finishes the in-flight batch (close joins
                # it); nothing to unwind here.
                raise

    # ------------------------------------------------------------------ #
    # Evaluation thread
    # ------------------------------------------------------------------ #
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
        """Enqueue a request; the future resolves to the evaluator's result."""
        if self._closed.is_set():
            raise CoalescerClosed("the coalescer is closed")
        item = _Pending(request)
        with self._outstanding_lock:
            self._outstanding.add(item)
        item.future.add_done_callback(lambda _future: self._forget(item))

        def _enqueue() -> None:
            assert self._queue is not None
            if self._closed.is_set():
                if not item.future.done():
                    item.future.set_exception(
                        CoalescerClosed("the coalescer is closed")
                    )
                return
            self._queue.put_nowait(item)

        try:
            self._loop.call_soon_threadsafe(_enqueue)
        except RuntimeError as error:
            # The event loop already stopped (a crashed or closed coalescer
            # losing a race with submit): fail the future instead of
            # leaving a caller blocked on it forever.
            if not item.future.done():
                item.future.set_exception(
                    CoalescerClosed(f"the coalescer event loop is gone: {error}")
                )
        return item.future

    def _forget(self, item: _Pending) -> None:
        with self._outstanding_lock:
            self._outstanding.discard(item)

    def pending_count(self) -> int:
        """Requests submitted but not yet resolved (admission-control input)."""
        with self._outstanding_lock:
            return len(self._outstanding)

    def is_alive(self) -> bool:
        """Can this coalescer still make progress on submitted requests?

        False once closed, once the loop thread has died, or once the
        collector task has finished (a crash in :meth:`_collect` leaves the
        loop spinning but nothing consuming the queue) — the signal the
        service watchdog polls to decide a restart is due.
        """
        if self._closed.is_set() or not self._thread.is_alive():
            return False
        collector = self._collector
        return collector is None or not collector.done()

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
        """Stop collecting, fail queued requests, finish the in-flight batch.

        Bounded: if the loop thread does not exit within ``timeout`` (a
        wedged evaluator holding the in-flight batch), every request still
        pending fails with :class:`CoalescerClosed` instead of blocking its
        caller forever, and the evaluator thread is abandoned rather than
        joined.
        """
        if self._closed.is_set():
            return
        self._closed.set()

        def _shutdown() -> None:
            assert self._queue is not None and self._collector is not None
            self._collector.cancel()
            while not self._queue.empty():
                item = self._queue.get_nowait()
                if not item.future.done():
                    item.future.set_exception(
                        CoalescerClosed("the coalescer is closed")
                    )
            self._loop.call_soon(self._loop.stop)

        deadline = time.monotonic() + timeout
        try:
            self._loop.call_soon_threadsafe(_shutdown)
        except RuntimeError:
            pass  # loop already stopped (crashed thread): sweep below
        self._thread.join(timeout)
        # Bounded wait for the in-flight batch: the evaluator resolves the
        # outstanding futures when it finishes; a wedged one never does.
        while self.pending_count() and time.monotonic() < deadline:
            time.sleep(0.005)
        wedged = self._thread.is_alive() or self.pending_count() > 0
        # A wedged evaluator cannot be interrupted; don't join it.
        self._executor.shutdown(wait=not wedged)
        with self._outstanding_lock:
            stranded = list(self._outstanding)
        for item in stranded:
            if not item.future.done():
                item.future.set_exception(
                    CoalescerClosed(
                        "the coalescer closed before this request completed"
                        + (" (evaluation thread is wedged)" if wedged else "")
                    )
                )

    def __enter__(self) -> "RequestCoalescer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
