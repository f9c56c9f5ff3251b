"""Plugin-style registries for embedding strategies and traffic patterns.

PR 3 left two copies of the strategy-builder table — one in
``survey/runner.py``, one in ``experiments/simulation_tables.py`` — and the
traffic table buried in ``netsim/traffic.py``.  This module is the single
registry all three consumers (survey engine, experiment harness, CLI) import,
and the extension point for new competitors and workloads:

>>> from repro.runtime.registry import register_strategy
>>> @register_strategy("my-heuristic")
... def my_heuristic(guest, host):
...     ...

Builders are pure functions of their inputs — no backend parameter; they
consult the ambient :mod:`execution context <repro.runtime.context>` for the
backend, and :func:`build_strategy` — the only construction memo — memoizes
every builder's result through the context's construction cache, keyed
``"strategy:<name>"``.  The ``"paper"`` entry is the uncached dispatcher;
:func:`repro.core.dispatch.embed` is ``build_strategy("paper", ...)``.

Default entries load lazily on first lookup, so importing this module never
drags in the whole package (and the late imports break the otherwise-circular
``runtime ↔ core/baselines/netsim`` dependency).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..exceptions import UnsupportedEmbeddingError
from .cache import embedding_cache_key
from .context import current

__all__ = [
    "Registry",
    "STRATEGIES",
    "TRAFFIC_PATTERNS",
    "register_strategy",
    "strategy_builder",
    "strategy_names",
    "build_strategy",
    "register_traffic",
    "traffic_builder",
    "traffic_names",
    "build_traffic",
]


class Registry:
    """A named table of plugins with lazy default loading.

    ``loader`` (when given) runs once, on first lookup, to register the
    built-in entries; anything registered earlier (e.g. by importing the
    module that defines the defaults) simply pre-empts the loader's import.
    Registration order is preserved — it is the display order of CLI choices.
    """

    __slots__ = ("_kind", "_entries", "_loader", "_loaded", "_loading")

    def __init__(self, kind: str, loader: Optional[Callable[[], None]] = None):
        self._kind = kind
        self._entries: Dict[str, object] = {}
        self._loader = loader
        self._loaded = loader is None
        self._loading = False

    def _ensure_loaded(self) -> None:
        if self._loaded or self._loading:
            return
        self._loading = True  # the loader's imports may re-enter lookups
        try:
            self._loader()
            self._loaded = True  # only a successful load is final: a raising
            # loader (e.g. a transient ImportError) is retried on next lookup
        finally:
            self._loading = False

    def register(self, name: str, obj: object = None):
        """Register ``obj`` under ``name``; usable as a decorator.

        Duplicate names are an error — except while the default loader runs,
        where an existing entry wins: registering before the first lookup
        deliberately pre-empts the built-in of the same name.
        """

        def add(entry):
            if name in self._entries:
                if self._loading:
                    return self._entries[name]
                raise ValueError(f"duplicate {self._kind} {name!r}")
            self._entries[name] = entry
            return entry

        return add if obj is None else add(obj)

    def get(self, name: str):
        self._ensure_loaded()
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(
                f"unknown {self._kind} {name!r}; "
                f"choose from {', '.join(self.names())}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        self._ensure_loaded()
        return tuple(self._entries)

    def __contains__(self, name: str) -> bool:
        self._ensure_loaded()
        return name in self._entries

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self._kind!r}, {list(self._entries)})"


# --------------------------------------------------------------------------- #
# Embedding strategies
# --------------------------------------------------------------------------- #
def _load_default_strategies() -> None:
    """The paper's dispatcher plus the three baselines (the PR 3 competitor set)."""
    from ..baselines import (
        bfs_order_embedding,
        lexicographic_embedding,
        random_embedding,
    )
    from ..core.dispatch import _dispatch

    STRATEGIES.register("paper", _dispatch)
    STRATEGIES.register("lexicographic", lexicographic_embedding)
    STRATEGIES.register("bfs", bfs_order_embedding)
    STRATEGIES.register(
        "random", lambda guest, host: random_embedding(guest, host, seed=0)
    )


#: Embedding strategies the simulation scenarios select by name.  One table
#: for the survey engine, the SIM-MAP experiment and the CLI, so all three
#: always compare exactly the same competitors.
STRATEGIES = Registry("embedding strategy", _load_default_strategies)


def register_strategy(name: str, builder: object = None):
    """Add an embedding strategy: ``builder(guest, host) -> Embedding``.

    Builders must be deterministic in ``(guest, host)`` — the construction
    cache memoizes their output by name and graph identities.
    """
    return STRATEGIES.register(name, builder)


def strategy_builder(name: str):
    """The raw builder callable registered under ``name``."""
    return STRATEGIES.get(name)


def strategy_names() -> Tuple[str, ...]:
    """Registered strategy names, in registration order."""
    return STRATEGIES.names()


def build_strategy(name: str, guest, host):
    """Build the named strategy's embedding, memoized through the context cache.

    Every builder is memoized under ``("embedding", "strategy:<name>",
    ...)``.  A pair the builder does not support is memoized too: its
    :class:`~repro.exceptions.UnsupportedEmbeddingError` message is stored
    and raised again on every warm lookup.
    """
    builder = STRATEGIES.get(name)
    cache = current().cache
    if cache is None:
        return builder(guest, host)
    key = embedding_cache_key(name, guest, host)
    cached = cache.fetch_embedding(key, guest, host)
    if cached is not None:
        return cached
    try:
        embedding = builder(guest, host)
    except UnsupportedEmbeddingError as error:
        cache.store_unsupported(key, str(error))
        raise
    cache.store_embedding(key, embedding)
    return embedding


# --------------------------------------------------------------------------- #
# Traffic patterns
# --------------------------------------------------------------------------- #
def _load_default_traffic() -> None:
    """Importing the module registers its patterns as an import side effect."""
    from ..netsim import traffic as _traffic  # noqa: F401


#: Traffic patterns the simulation suite and ``repro simulate`` sweep.
TRAFFIC_PATTERNS = Registry("traffic pattern", _load_default_traffic)


def register_traffic(name: str, builder: object = None):
    """Add a traffic pattern builder: ``(guest, *, message_size, ...) -> TrafficPattern``."""
    return TRAFFIC_PATTERNS.register(name, builder)


def traffic_builder(name: str):
    """The raw pattern builder registered under ``name``."""
    return TRAFFIC_PATTERNS.get(name)


def traffic_names() -> Tuple[str, ...]:
    """Registered traffic pattern names, in registration order."""
    return TRAFFIC_PATTERNS.names()


def build_traffic(name: str, guest, *, message_size: float = 1.0, **kwargs):
    """Build the named traffic pattern for a guest task graph."""
    return TRAFFIC_PATTERNS.get(name)(guest, message_size=message_size, **kwargs)
