"""The stable public surface of the package.

Seven PRs of growth left the import surface incidental — callers reached
into ``repro.survey.runner`` or ``repro.core.dispatch``.  This module is the
deliberate alternative: one facade with documented, stable signatures,
re-exported as ``repro.api`` (and pinned by ``tests/test_api_surface.py`` so
accidental drift fails CI).

Every entry point accepts graphs either as live
:class:`~repro.graphs.base.CartesianGraph` objects or as the CLI/service
spec strings (``"torus:8x8"``, ``"mesh:2,2,2,3"``, ``"ring:24"``,
``"hypercube:4"``), and resolves backend/cache/parallelism from the ambient
execution context — scope overrides with :func:`use_context`:

>>> import repro.api as api
>>> with api.use_context(cache=api.load_cache("warm.pkl")):
...     result = api.optimize("torus:8x8", "mesh:8x8", budget=2000, seed=7)
...     report = api.measure(result.embedding, with_congestion=True)
"""

from __future__ import annotations

from typing import Optional, Union

from .analysis.metrics import EmbeddingReport, evaluate_embedding
from .graphs.base import CartesianGraph, make_graph
from .netsim import HostNetwork, simulate_phase, traffic_pattern
from .optimize import OptimizeOptions, OptimizeResult, optimize_embedding
from .runtime import ConstructionCache, build_strategy, use_context
from .survey import run_survey
from .types import GraphKind

__all__ = [
    "embed",
    "measure",
    "simulate",
    "run_survey",
    "optimize",
    "use_context",
    "load_cache",
]

#: A graph argument: a live graph object or a ``kind:shape`` spec string.
GraphLike = Union[CartesianGraph, str]


def _as_graph(graph: GraphLike) -> CartesianGraph:
    """Resolve a facade graph argument (pass-through for live graphs)."""
    if isinstance(graph, CartesianGraph):
        return graph
    from .service.protocol import parse_graph_spec

    kind, shape = parse_graph_spec(graph)
    return make_graph(GraphKind(kind), shape)


def embed(guest: GraphLike, host: GraphLike, *, strategy: str = "paper"):
    """Embed ``guest`` into ``host`` and return the live ``Embedding``.

    ``strategy`` names a registry entry — ``"paper"`` (the dispatcher over
    the paper's constructions, the default) or a baseline such as
    ``"lexicographic"`` / ``"bfs"`` / ``"random"``.  Construction is
    memoized through the ambient context's cache when one is installed.
    """
    return build_strategy(strategy, _as_graph(guest), _as_graph(host))


def measure(embedding, *, with_congestion: bool = False) -> EmbeddingReport:
    """Measure an embedding's costs (dilation, average dilation, validity).

    ``with_congestion`` additionally routes every guest edge and reports the
    maximum per-link load.  The result is a plain
    :class:`~repro.analysis.metrics.EmbeddingReport` ready for tabulation.
    """
    return evaluate_embedding(embedding, with_congestion=with_congestion)


def simulate(
    guest: GraphLike,
    host: GraphLike,
    *,
    strategy: str = "paper",
    traffic: str = "neighbor-exchange",
    message_size: float = 1.0,
):
    """Embed, place a traffic pattern, and simulate one communication phase.

    Builds the named ``strategy`` embedding, places the named ``traffic``
    pattern of the guest on the host network and runs the store-and-forward
    phase simulation; returns the
    :class:`~repro.netsim.simulate.PhaseResult` (makespan, statistics).
    """
    guest = _as_graph(guest)
    host = _as_graph(host)
    embedding = embed(guest, host, strategy=strategy)
    pattern = traffic_pattern(traffic, guest, message_size=message_size)
    return simulate_phase(HostNetwork(host), embedding, pattern)


def optimize(
    guest: GraphLike,
    host: GraphLike,
    *,
    objective: str = "combined",
    budget: int = 2000,
    population: int = 16,
    seed: int = 0,
    schedule: str = "anneal",
    options: Optional[OptimizeOptions] = None,
) -> OptimizeResult:
    """Search for a low-cost embedding with the population optimizer.

    The keyword knobs mirror :class:`~repro.optimize.OptimizeOptions` (an
    explicit ``options`` instance overrides them all).  The ambient
    context's cache — when installed — warm-starts the search from the
    stored optimum and persists the best embedding found.
    """
    if options is None:
        options = OptimizeOptions(
            objective=objective,
            budget=budget,
            population=population,
            seed=seed,
            schedule=schedule,
        )
    return optimize_embedding(_as_graph(guest), _as_graph(host), options)


def load_cache(path) -> ConstructionCache:
    """A construction cache warm-started from ``path`` (empty if missing).

    Install it with ``use_context(cache=...)`` so every facade call memoizes
    through it; persist with ``cache.save(path)`` when done.
    """
    return ConstructionCache.load(path)
