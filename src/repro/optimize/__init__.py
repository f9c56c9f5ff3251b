"""The optimization layer: embedding search via the batched evaluator.

``optimize_embedding`` runs a population-based local search (2-swaps and
segment reversals, greedy or simulated-annealing acceptance) whose
generations are priced by the stacked metric kernels, each from only the
guest edges its moves touched, seeded from the paper's constructions and
the registry baselines, with found optima persisted through the runtime
construction cache.  See
:mod:`repro.optimize.search` for the engine architecture and
:mod:`repro.optimize.objective` for the exact-integer objective encoding
that keeps the array and loop engines bit-for-bit identical.
"""

from ..utils.rng import SplitMix64
from .objective import (
    OBJECTIVES,
    decode_primary,
    encode_objective,
    needs_congestion,
    objective_scale,
)
from .search import (
    SCHEDULES,
    SEED_STRATEGIES,
    SUITE_OPTIONS,
    OptimizeOptions,
    OptimizeResult,
    optimize_embedding,
    register_optimized_strategy,
)

__all__ = [
    "OBJECTIVES",
    "SCHEDULES",
    "SEED_STRATEGIES",
    "SUITE_OPTIONS",
    "OptimizeOptions",
    "OptimizeResult",
    "SplitMix64",
    "decode_primary",
    "encode_objective",
    "needs_congestion",
    "objective_scale",
    "optimize_embedding",
    "register_optimized_strategy",
]
