"""Span tracer and function wrappers for the traced benchmark run.

Nothing here touches the program's source: :func:`install` replaces a public
function *as the calling modules see it* — every loaded ``repro.*`` module
attribute that is the original function object — with a wrapper that records
a span (or only counts calls).  The untraced run never imports this module's
wrappers, so its timings carry no tracing cost.

A span is ``(name, start, end, parent)``.  Spans are kept in memory per
process and aggregated when the run ends: a layer's *time* is the summed
duration of its outermost spans, its *self time* that duration minus the
part covered by its child spans.  Re-entrant calls of the same layer (a
construction that builds another construction) are folded into the outer
span, so no interval is counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: One finished span: (name, start, end, parent index or -1).
Span = Tuple[str, float, float, int]


class Tracer:
    """In-memory spans and counters of one process (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._generation = 0

    def reset(self) -> None:
        """Forget everything recorded so far.  Spans open across the reset
        are recorded when they close, detached from children recorded
        before it."""
        with self._lock:
            self.spans = []
            self.counters = {}
            self._generation += 1

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self, name: str) -> bool:
        """True when a span of ``name`` is open on this thread."""
        return any(frame[0] == name for frame in self._stack())

    def open(self, name: str) -> None:
        # frame: [name, start, finished child spans]
        self._stack().append([name, time.perf_counter(), []])

    def close(self) -> None:
        end = time.perf_counter()
        stack = self._stack()
        name, start, children = stack.pop()
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, start, end, -1))
            for generation, child in children:
                if generation == self._generation:
                    child_name, child_start, child_end, _ = self.spans[child]
                    self.spans[child] = (child_name, child_start, child_end, index)
            generation = self._generation
        if stack:
            stack[-1][2].append((generation, index))

    @contextlib.contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()


def check_spans(spans: List[Span], slack: float = 1e-6) -> List[str]:
    """Hygiene violations: a child span that starts before or ends after its
    parent.  Returns human-readable messages (empty when clean)."""
    problems = []
    for name, start, end, parent in spans:
        if end < start:
            problems.append(f"span {name} ends before it starts")
        if parent < 0:
            continue
        parent_name, parent_start, parent_end, _ = spans[parent]
        if start < parent_start - slack or end > parent_end + slack:
            problems.append(f"span {name} exceeds its parent {parent_name}")
    return problems


def aggregate(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """``name -> {"time", "self", "calls"}`` over the finished spans."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    layers: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        entry = layers.setdefault(name, {"time": 0.0, "self": 0.0, "calls": 0})
        entry["time"] += end - start
        entry["self"] += (end - start) - covered[index]
        entry["calls"] += 1
    return layers


# --------------------------------------------------------------------------- #
# Installing wrappers
# --------------------------------------------------------------------------- #
def _holders(original: Callable) -> List[Tuple[object, str]]:
    """Every (module, attribute) of a loaded ``repro`` module bound to
    ``original`` — the function as each calling module sees it."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "repro":
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                found.append((module, attribute))
    return found


def install(
    tracer: Tracer,
    module: object,
    attribute: str,
    layer: Optional[str],
    *,
    counter: Optional[str] = None,
    observe: Optional[Callable] = None,
    errors: Optional[Tuple[type, str]] = None,
    modules: Optional[List[object]] = None,
) -> int:
    """Wrap ``module.attribute`` everywhere it is bound — or only in
    ``modules``, the callers whose calls belong to ``layer`` — and return the
    number of bindings replaced.

    ``layer`` names the span (``None`` counts calls only, for hot helpers
    whose span bookkeeping would cost more than their work).  ``counter``
    counts outermost calls; ``observe(tracer, args, kwargs, result)`` records
    counts taken from the call's arguments and result; ``errors`` is an
    ``(exception type, counter)`` pair counting outermost calls that raised it.
    """
    original = getattr(module, attribute)
    holders = [
        (holder, name)
        for holder, name in _holders(original)
        if modules is None or any(holder is caller for caller in modules)
    ]
    if not holders:
        raise RuntimeError(f"{attribute} is bound in no loaded repro module")

    if layer is None:

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.count(counter or attribute)
            return original(*args, **kwargs)

    else:

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.active(layer):
                return original(*args, **kwargs)
            if counter is not None:
                tracer.count(counter)
            tracer.open(layer)
            try:
                result = original(*args, **kwargs)
            except BaseException as error:
                if errors is not None and isinstance(error, errors[0]):
                    tracer.count(errors[1])
                raise
            finally:
                tracer.close()
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

    for holder, name in holders:
        setattr(holder, name, wrapper)
    return len(holders)
