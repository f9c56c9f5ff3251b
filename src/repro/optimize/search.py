"""Population-based local search over embeddings, scored by the batch kernels.

The survey engine (PR 5) can measure a *stack* of embeddings in one fused
pass; this module points the same kernels at *search*.  A population of
candidate bijections — seeded from the paper's constructions and the
registry baselines — is mutated by random 2-swaps and segment reversals and
re-scored generation by generation, with either greedy hill-climbing or a
simulated-annealing acceptance schedule.  The array engine stacks the whole
population into one ``(population, size)`` host-index matrix and prices every
candidate generation with a single :func:`stacked_objective_components`
call — zero per-candidate Python in the scoring path.

The differential contract that made PRs 2-7 safe extends here: a pure-Python
loop engine re-runs the identical search (same shared
:class:`~repro.utils.rng.SplitMix64` stream, same shared acceptance
logic, per-candidate reference scoring) and must match the array engine
bit-for-bit under a fixed seed.  All ranking happens on exact integers
(:mod:`repro.optimize.objective`), so "identical scores" is an equality of
ints, never a float tolerance.

Found optima persist as :class:`~repro.runtime.cache.OptimizerState` entries
in the ambient :class:`~repro.runtime.cache.ConstructionCache`, so later
``repro optimize`` / ``repro survey --suite optima`` / ``repro serve`` runs
warm-start from the best embedding known so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.metrics import stacked_objective_components
from ..core.embedding import Embedding, use_array_path
from ..exceptions import ShapeMismatchError, UnsupportedEmbeddingError
from ..graphs.paths import dimension_order_path
from ..runtime.cache import OptimizerState
from ..runtime.context import current
from ..runtime.registry import STRATEGIES, build_strategy, register_strategy
from ..utils.rng import SplitMix64
from .objective import (
    OBJECTIVES,
    encode_objective,
    needs_congestion,
    objective_scale,
)

__all__ = [
    "OBJECTIVES",
    "SCHEDULES",
    "SEED_STRATEGIES",
    "SUITE_OPTIONS",
    "OptimizeOptions",
    "OptimizeResult",
    "optimize_embedding",
    "register_optimized_strategy",
]

#: Acceptance schedules: ``anneal`` follows a geometric cooling curve,
#: ``greedy`` accepts only non-worsening moves (objective is monotone).
SCHEDULES = ("anneal", "greedy")

#: Registry strategies the population is seeded from, in seeding order.  A
#: fixed tuple rather than ``strategy_names()`` so third-party registrations
#: (including our own ``"optimized"`` wrapper) never perturb the seed stream.
SEED_STRATEGIES = ("paper", "lexicographic", "bfs", "random")


@dataclass(frozen=True)
class OptimizeOptions:
    """Tuning knobs of one search run.

    ``budget`` counts candidate evaluations (generations x population);
    ``population`` is the *target* size — the strategy and cached seeds are
    always included even when they exceed it, and random restarts fill the
    remainder.  The RNG stream is a pure function of ``seed`` and the seed
    row count, so fixed options on a fixed cache state replay exactly.
    """

    objective: str = "combined"
    budget: int = 2000
    population: int = 16
    seed: int = 0
    schedule: str = "anneal"

    def validated(self) -> "OptimizeOptions":
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; "
                f"choose from {', '.join(OBJECTIVES)}"
            )
        if self.schedule not in SCHEDULES:
            raise ValueError(
                f"unknown schedule {self.schedule!r}; "
                f"choose from {', '.join(SCHEDULES)}"
            )
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        if self.population < 1:
            raise ValueError("population must be >= 1")
        return self


#: The fixed configuration of the ``optima`` survey suite — small enough for
#: the golden tables to regenerate in seconds, pinned so the goldens are
#: byte-stable.  (Suite runs consult the ambient cache for warm starts; the
#: golden fixtures are generated cache-less.)
SUITE_OPTIONS = OptimizeOptions(
    objective="combined", budget=960, population=12, seed=7, schedule="anneal"
)


@dataclass(frozen=True)
class OptimizeResult:
    """The outcome of one search run.

    ``baseline_objective`` is the encoded objective of the paper construction
    when the pair supports one (otherwise the best initial seed), so
    ``improved`` answers the paper-probing question directly: did search beat
    the construction it started from?  ``state`` is the portable payload
    persisted through :class:`~repro.runtime.cache.ConstructionCache`.
    """

    embedding: Embedding
    objective_mode: str
    objective: int
    dilation: int
    dilation_total: int
    congestion: Optional[int]
    baseline_objective: int
    improved: bool
    steps: int
    evaluations: int
    provenance: str
    state: OptimizerState


# --------------------------------------------------------------------------- #
# Engines: candidate construction + scoring (everything else is shared)
# --------------------------------------------------------------------------- #
class _ArrayEngine:
    """Vectorized engine: the population is one ``(population, size)`` matrix.

    Scoring is a single fused pass of the stacked metric kernels per
    generation; move application touches two cells (swap) or one slice
    (reversal) per member, which is negligible next to the ``O(population x
    edges)`` scoring work.
    """

    def __init__(self, guest, host, *, with_congestion: bool):
        self.host = host
        self.with_congestion = with_congestion
        self.edge_u, self.edge_v = guest.edge_index_arrays()

    def population(self, rows: Sequence[Sequence[int]]):
        return np.asarray([list(row) for row in rows], dtype=np.int64)

    def candidates(self, matrix, moves):
        candidate = matrix.copy()
        for member, move in enumerate(moves):
            kind, lo, hi = move
            if kind == 0:  # 2-swap
                candidate[member, [lo, hi]] = candidate[member, [hi, lo]]
            else:  # segment reversal (inclusive)
                candidate[member, lo : hi + 1] = candidate[
                    member, lo : hi + 1
                ][::-1].copy()
        return candidate

    def score(self, matrix):
        dil_max, dil_sum, congestion = stacked_objective_components(
            self.host,
            self.edge_u,
            self.edge_v,
            matrix,
            with_congestion=self.with_congestion,
        )
        return (
            dil_max.tolist(),
            dil_sum.tolist(),
            congestion.tolist() if congestion is not None else None,
        )

    def commit(self, matrix, candidate, accepted: Sequence[bool]) -> None:
        for member, take in enumerate(accepted):
            if take:
                matrix[member] = candidate[member]

    def row(self, matrix, member: int) -> Tuple[int, ...]:
        return tuple(int(image) for image in matrix[member])


class _LoopEngine:
    """Pure-Python reference engine: lists of ints, per-edge loops.

    Deliberately naive — it re-derives every candidate's costs with the
    historical per-edge distance loop and the dimension-ordered routing walk,
    so a bit-for-bit match against :class:`_ArrayEngine` cross-checks the
    whole vectorized search, not just one kernel.
    """

    def __init__(self, guest, host, *, with_congestion: bool):
        self.host = host
        self.with_congestion = with_congestion
        self.edges = [
            (guest.node_index(a), guest.node_index(b)) for a, b in guest.edges()
        ]
        self.host_nodes = [host.index_node(rank) for rank in range(host.size)]

    def population(self, rows: Sequence[Sequence[int]]) -> List[List[int]]:
        return [list(row) for row in rows]

    def candidates(self, matrix, moves):
        candidate = [row.copy() for row in matrix]
        for member, move in enumerate(moves):
            kind, lo, hi = move
            row = candidate[member]
            if kind == 0:
                row[lo], row[hi] = row[hi], row[lo]
            else:
                row[lo : hi + 1] = row[lo : hi + 1][::-1]
        return candidate

    def _score_row(self, row: Sequence[int]) -> Tuple[int, int, Optional[int]]:
        host = self.host
        nodes = self.host_nodes
        dil_max = 0
        dil_sum = 0
        for u, v in self.edges:
            distance = host.distance(nodes[row[u]], nodes[row[v]])
            dil_sum += distance
            if distance > dil_max:
                dil_max = distance
        congestion = None
        if self.with_congestion:
            load = {}
            for u, v in self.edges:
                path = dimension_order_path(host, nodes[row[u]], nodes[row[v]])
                for a, b in zip(path, path[1:]):
                    key = (
                        (a, b)
                        if host.node_index(a) < host.node_index(b)
                        else (b, a)
                    )
                    load[key] = load.get(key, 0) + 1
            congestion = max(load.values()) if load else 0
        return dil_max, dil_sum, congestion

    def score(self, matrix):
        scored = [self._score_row(row) for row in matrix]
        dil_max = [entry[0] for entry in scored]
        dil_sum = [entry[1] for entry in scored]
        if not self.with_congestion:
            return dil_max, dil_sum, None
        return dil_max, dil_sum, [entry[2] for entry in scored]

    def commit(self, matrix, candidate, accepted: Sequence[bool]) -> None:
        for member, take in enumerate(accepted):
            if take:
                matrix[member] = candidate[member]

    def row(self, matrix, member: int) -> Tuple[int, ...]:
        return tuple(matrix[member])


# --------------------------------------------------------------------------- #
# Seeding
# --------------------------------------------------------------------------- #
def _row_from_embedding(embedding) -> List[int]:
    """The embedding's natural-order host-rank row (backend-agnostic)."""
    host = embedding.host
    return [
        host.node_index(embedding.map_index(rank))
        for rank in range(embedding.guest.size)
    ]


def _seed_population(guest, host, options: OptimizeOptions, rng: SplitMix64, cache):
    """``(provenance, row)`` seeds: strategies, cached optimum, random fills.

    Strategy seeds come through :func:`build_strategy`, so they are memoized
    in (and warm-started from) the same construction cache as every other
    consumer.  Pairs the paper does not support simply skip the ``"paper"``
    seed.  Random fills are Fisher-Yates shuffles of the shared RNG stream,
    identical across engines.
    """
    seeds: List[Tuple[str, List[int]]] = []
    for name in SEED_STRATEGIES:
        if name not in STRATEGIES:
            continue
        try:
            embedding = build_strategy(name, guest, host)
        except (UnsupportedEmbeddingError, ShapeMismatchError):
            continue
        seeds.append((name, _row_from_embedding(embedding)))
    if cache is not None:
        state = cache.fetch_optimum(options.objective, guest, host)
        if state is not None:
            seeds.append(("cache", [int(image) for image in state.host_indices]))
    identity = list(range(guest.size))
    for restart in range(max(0, options.population - len(seeds))):
        row = identity.copy()
        rng.shuffle(row)
        seeds.append((f"restart-{restart}", row))
    return seeds


# --------------------------------------------------------------------------- #
# The shared search driver
# --------------------------------------------------------------------------- #
def optimize_embedding(
    guest, host, options: Optional[OptimizeOptions] = None, *, cache=None
) -> OptimizeResult:
    """Search for a low-cost bijective embedding of ``guest`` into ``host``.

    The engine is resolved from the ambient execution context exactly like
    every other cost computation — the array backend runs the stacked-kernel
    population search, ``use_context(backend="loop")`` the pure-Python
    reference — and both produce the identical result for identical options
    and cache state.  ``cache`` defaults to the ambient context's
    construction cache; when present, the stored optimum (if any) joins the
    seed population and the search's best is persisted back (keep-best, so
    repeated runs only ever improve the stored state).
    """
    options = (options or OptimizeOptions()).validated()
    if guest.size != host.size:
        raise UnsupportedEmbeddingError(
            "the optimizer searches bijections: guest and host must have the "
            f"same size (got {guest.size} and {host.size})"
        )
    if cache is None:
        cache = current().cache

    rng = SplitMix64(options.seed)
    seeds = _seed_population(guest, host, options, rng, cache)
    lineage = [provenance for provenance, _ in seeds]
    size = guest.size
    guest_edges = sum(1 for _ in guest.edges())
    scale = objective_scale(guest_edges, host.diameter())
    with_congestion = needs_congestion(options.objective)

    engine_cls = _ArrayEngine if use_array_path() else _LoopEngine
    engine = engine_cls(guest, host, with_congestion=with_congestion)
    population = engine.population([row for _, row in seeds])

    def encode(member_scores, member: int) -> int:
        dil_max, dil_sum, congestion = member_scores
        return encode_objective(
            options.objective,
            scale,
            dil_max[member],
            dil_sum[member],
            congestion[member] if congestion is not None else None,
        )

    scores = engine.score(population)
    objectives = [encode(scores, member) for member in range(len(seeds))]

    best_member = min(range(len(objectives)), key=lambda member: objectives[member])
    best_objective = objectives[best_member]
    best_row = engine.row(population, best_member)
    best_provenance = lineage[best_member]
    if "paper" in lineage:
        baseline_objective = objectives[lineage.index("paper")]
    else:
        baseline_objective = best_objective

    members = len(seeds)
    steps = max(1, options.budget // members) if options.budget > 0 else 0
    if size < 2:
        steps = 0  # no valid move exists on a single-node graph
    if steps:
        initial_temperature = float(scale)
        cooling = 0.01 ** (1.0 / max(1, steps - 1))
        temperature = initial_temperature
        for step in range(steps):
            moves = []
            for _ in range(members):
                kind = rng.randrange(2)
                i = rng.randrange(size)
                j = rng.randrange(size - 1)
                if j >= i:
                    j += 1
                moves.append((kind, min(i, j), max(i, j)))
            candidate = engine.candidates(population, moves)
            candidate_scores = engine.score(candidate)
            accepted = []
            for member in range(members):
                challenger = encode(candidate_scores, member)
                delta = challenger - objectives[member]
                if delta <= 0:
                    take = True
                elif options.schedule == "anneal":
                    take = rng.random() < math.exp(-delta / temperature)
                else:
                    take = False
                accepted.append(take)
                if take:
                    objectives[member] = challenger
                    if challenger < best_objective:
                        best_objective = challenger
                        best_row = engine.row(candidate, member)
                        best_provenance = lineage[member]
            engine.commit(population, candidate, accepted)
            temperature *= cooling

    dilation, dilation_total, congestion = _score_single(engine, best_row)
    improved = best_objective < baseline_objective
    state = OptimizerState(
        host_indices=best_row,
        objective=best_objective,
        objective_mode=options.objective,
        dilation=dilation,
        congestion=congestion,
        steps=steps,
        provenance=best_provenance,
    )
    if cache is not None:
        cache.store_optimum(options.objective, guest, host, state)

    embedding = Embedding.from_index_array(
        guest,
        host,
        best_row,
        strategy="optimized",
        notes={
            "objective": options.objective,
            "objective_value": best_objective,
            "search_steps": steps,
            "seeded_from": best_provenance,
        },
    )
    return OptimizeResult(
        embedding=embedding,
        objective_mode=options.objective,
        objective=best_objective,
        dilation=dilation,
        dilation_total=dilation_total,
        congestion=congestion,
        baseline_objective=baseline_objective,
        improved=improved,
        steps=steps,
        evaluations=members * (steps + 1),
        provenance=best_provenance,
        state=state,
    )


def _score_single(engine, row: Sequence[int]) -> Tuple[int, int, Optional[int]]:
    """``(dilation, dilation_total, congestion)`` of one row, via the engine."""
    dil_max, dil_sum, congestion = engine.score(engine.population([list(row)]))
    return (
        dil_max[0],
        dil_sum[0],
        congestion[0] if congestion is not None else None,
    )


# --------------------------------------------------------------------------- #
# Registry integration
# --------------------------------------------------------------------------- #
def register_optimized_strategy(options: Optional[OptimizeOptions] = None) -> None:
    """Register ``"optimized"`` as a runtime strategy (explicit opt-in).

    Not a default registry entry: the default strategy set is pinned (tests,
    golden simulation tables), and a search is far more expensive than any
    construction.  Long-lived consumers — ``repro serve`` — call this once at
    startup so clients can request ``strategy="optimized"`` embeddings that
    warm-start from, and persist to, the service's construction cache.
    Registering twice is a no-op.
    """
    if "optimized" in STRATEGIES:
        return
    fixed = (options or OptimizeOptions()).validated()

    def build(guest, host):
        return optimize_embedding(guest, host, fixed).embedding

    register_strategy("optimized", build)
