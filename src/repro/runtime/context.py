"""The execution context: backend, cache, batching and chaos in one ambient object.

Every layer of the embed → place → route → simulate pipeline *consults* one
ambient :class:`ExecutionContext` (the SYS_ATL/Exo idiom: a scheduling
context, not a parameter every caller must forward):

* :func:`current` — the context in effect (innermost :func:`use_context`
  override, else the process default);
* :func:`use_context` — a scoped override, e.g.
  ``with use_context(backend="loop"): ...``;
* :func:`set_default_context` — install a process-wide default (used by
  survey worker processes to inherit the parent's context).

The context is the only input to backend selection (see
``docs/ARCHITECTURE.md``): the innermost ``use_context`` scope wins, else the
process default context (``backend="auto"``).  How a survey is scheduled
(worker count, shard size, retries) is not context: it is
:class:`~repro.survey.runner.SurveyOptions`, per run.
"""

from __future__ import annotations

import contextvars
import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Union

from .cache import ConstructionCache

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .chaos import ChaosPlan

__all__ = [
    "BACKENDS",
    "Backend",
    "ExecutionContext",
    "current",
    "use_context",
    "set_default_context",
    "resolve_backend",
    "use_array_path",
]

#: Allowed values of :attr:`ExecutionContext.backend`: ``"auto"`` and
#: ``"array"`` run the vectorized array kernels, and ``"loop"`` forces the
#: retained pure-Python reference implementations.
Backend = str

BACKENDS = ("auto", "array", "loop")


@dataclass(frozen=True)
class ExecutionContext:
    """One execution context: backend selection, memo cache, batching, chaos.

    Attributes
    ----------
    backend:
        Construction/measure/simulation implementation — ``"auto"`` (the
        array kernels), ``"array"`` or ``"loop"``.  ``"compiled"``, the C
        simulator tier, was removed in repro 3.0 and is rejected by name.
    cache:
        The content-addressed construction memo
        (:class:`~repro.runtime.cache.ConstructionCache`), or ``None`` to
        disable memoization (the default).
    batch:
        Whether the survey engine evaluates shards through the batched path
        (:mod:`repro.survey.batch` — stacked metric kernels, one vectorized
        event loop per shard).  On by default; set ``False`` to force the
        per-scenario path (the cross-checked reference, and the only path
        available when the resolved backend is ``"loop"``).
    chaos:
        The active fault-injection schedule
        (:class:`~repro.runtime.chaos.ChaosPlan`), or ``None`` — the
        default, under which every named injection point is a no-op.  A
        spec string (``"worker_crash:0.02,seed=7"``) is parsed on
        construction.

    The dataclass is frozen and picklable: survey workers receive the
    parent's context verbatim (the cache dict rides along as the warm
    start, the chaos plan so workers inject the same seeded schedule), and
    scoped overrides are :func:`dataclasses.replace` copies.
    """

    backend: Backend = "auto"
    cache: Optional[ConstructionCache] = None
    batch: bool = True
    chaos: Optional[Union["ChaosPlan", str]] = None

    def __post_init__(self) -> None:
        if self.backend == "compiled":
            raise ValueError(
                "backend 'compiled' (the C simulator tier) was removed in "
                f"repro 3.0; expected one of {BACKENDS}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if isinstance(self.chaos, str):
            from .chaos import ChaosPlan

            object.__setattr__(self, "chaos", ChaosPlan.parse(self.chaos))

    def resolved_backend(self) -> Backend:
        """The concrete backend — ``"array"`` or ``"loop"``."""
        return "loop" if self.backend == "loop" else "array"

    def use_array(self) -> bool:
        """True when the resolved backend runs the vectorized array kernels."""
        return self.resolved_backend() == "array"


_default_context = ExecutionContext()

_current_context: contextvars.ContextVar[Optional[ExecutionContext]] = (
    contextvars.ContextVar("repro_execution_context", default=None)
)


def current() -> ExecutionContext:
    """The execution context in effect for the calling code."""
    context = _current_context.get()
    return context if context is not None else _default_context


def set_default_context(context: ExecutionContext) -> ExecutionContext:
    """Install a new process-wide default context; returns the previous one.

    Scoped :func:`use_context` overrides still win while active.  Survey
    worker processes call this once at pool start-up so every shard they
    evaluate inherits the parent's backend, cache warm start, batching and
    chaos plan.
    """
    global _default_context
    previous = _default_context
    _default_context = context
    return previous


@contextmanager
def use_context(
    context: Optional[ExecutionContext] = None, **overrides
) -> Iterator[ExecutionContext]:
    """Scoped context override.

    ``use_context(ctx)`` installs a full context; ``use_context(backend=...,
    cache=..., ...)`` derives one from the currently active context with the
    given fields replaced; both forms combined install ``replace(ctx, ...)``.
    Nesting composes innermost-wins, and the override is restored on exit
    even when the body raises.
    """
    base = context if context is not None else current()
    scoped = dataclasses.replace(base, **overrides) if overrides else base
    token = _current_context.set(scoped)
    try:
        yield scoped
    finally:
        _current_context.reset(token)


def resolve_backend() -> Backend:
    """:meth:`ExecutionContext.resolved_backend` of the current context."""
    return current().resolved_backend()


def use_array_path() -> bool:
    """Should the vectorized array path run?  Resolved from the context.

    The single gate shared by every cost measure, construction builder and
    simulation path; scope the backend with :func:`use_context`.
    """
    return current().use_array()
