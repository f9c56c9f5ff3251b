"""The runtime layer: one execution context instead of hand-threaded kwargs.

Backend selection, the construction memo cache, the survey's batch switch
and the chaos plan live in one ambient
:class:`~repro.runtime.context.ExecutionContext` (a survey's worker count
and shard size are its :class:`~repro.survey.runner.SurveyOptions`):

>>> from repro.runtime import use_context
>>> with use_context(backend="loop"):
...     embedding = embed(guest, host)          # pure-Python reference path

``context``
    :class:`ExecutionContext`, the :func:`current` accessor and the scoped
    :func:`use_context` override.
``cache``
    :class:`ConstructionCache` — the content-addressed embedding memo,
    picklable across survey workers and CLI invocations.
``registry``
    The plugin registries of embedding strategies and traffic patterns
    shared by the survey engine, the experiment harness and the CLI.
``chaos``
    The deterministic fault-injection plane: a seeded
    :class:`ChaosPlan` carried on the context, named :func:`inject`
    points, and the process-local fault tally behind the recovery
    counters in survey reports and ``/stats``.
"""

from .cache import (
    CachedConstruction,
    ConstructionCache,
    OptimizerState,
    embedding_cache_key,
    optimum_cache_key,
)
from .chaos import (
    ChaosPlan,
    FaultRule,
    InjectedFault,
    chaos_counters,
    inject,
    reset_chaos_counters,
)
from .context import (
    BACKENDS,
    Backend,
    ExecutionContext,
    current,
    resolve_backend,
    set_default_context,
    use_array_path,
    use_context,
)
from .registry import (
    Registry,
    build_strategy,
    build_traffic,
    register_strategy,
    register_traffic,
    strategy_builder,
    strategy_names,
    traffic_builder,
    traffic_names,
)

__all__ = [
    # context
    "BACKENDS",
    "Backend",
    "ExecutionContext",
    "current",
    "use_context",
    "set_default_context",
    "resolve_backend",
    "use_array_path",
    # chaos
    "ChaosPlan",
    "FaultRule",
    "InjectedFault",
    "chaos_counters",
    "inject",
    "reset_chaos_counters",
    # cache
    "CachedConstruction",
    "ConstructionCache",
    "OptimizerState",
    "embedding_cache_key",
    "optimum_cache_key",
    # registry
    "Registry",
    "register_strategy",
    "strategy_builder",
    "strategy_names",
    "build_strategy",
    "register_traffic",
    "traffic_builder",
    "traffic_names",
    "build_traffic",
]
