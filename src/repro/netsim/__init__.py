"""A small interconnection-network simulation substrate.

The paper's motivation (Section 1) is mapping the communication structure of
a parallel task onto the interconnection network of a parallel machine: the
dilation of the embedding bounds how many hops each task-graph message must
travel, and therefore the communication time.  The 1980s machines the paper
had in mind are unavailable, so this package substitutes a deterministic
store-and-forward network simulator that preserves exactly the behaviour the
paper relies on — per-hop latency and link serialization — allowing the
benefit of low-dilation embeddings to be demonstrated end to end.

``network``
    The host machine: a torus/mesh of processors with link parameters.
``routing``
    Dimension-ordered (e-cube) routing of messages, the standard deadlock-free
    discipline on meshes and toruses.
``kernels``
    The vectorized hot path: batched dimension-ordered routing over a flat
    directed-link id space, CSR route expansion and ``bincount`` link-load
    accumulation (the loop modules above stay as the cross-checked
    reference).
``traffic``
    Workload generation: neighbour-exchange, transpose and
    all-to-all-in-groups patterns derived from a guest task graph.
``models``
    The latency/bandwidth cost model.
``simulator``
    An analytic estimate and a discrete-time store-and-forward simulation of
    one communication phase, plus per-link statistics — both resolving their
    backend (array kernels vs per-message loop) from the ambient execution
    context (:mod:`repro.runtime.context`).
"""

from .models import CostModel
from .network import HostNetwork
from .routing import route_message
from .kernels import LinkIndexSpace, RouteArrays, accumulate_link_loads, expand_routes
from .traffic import (
    Message,
    TrafficPattern,
    all_to_all_in_groups_traffic,
    bursty_traffic,
    hotspot_traffic,
    neighbor_exchange_traffic,
    random_permutation_traffic,
    traffic_pattern,
    traffic_pattern_names,
    traffic_rank_arrays,
    transpose_traffic,
)
from .weights import LinkWeightSpec, directed_slot_id
from .simulator import (
    PhaseStatistics,
    SimulationResult,
    analytic_phase_estimate,
    simulate_endpoint_phases,
    simulate_phase,
    simulate_phases_rounds,
)

__all__ = [
    "CostModel",
    "HostNetwork",
    "route_message",
    "LinkIndexSpace",
    "RouteArrays",
    "accumulate_link_loads",
    "expand_routes",
    "Message",
    "TrafficPattern",
    "neighbor_exchange_traffic",
    "transpose_traffic",
    "all_to_all_in_groups_traffic",
    "random_permutation_traffic",
    "hotspot_traffic",
    "bursty_traffic",
    "LinkWeightSpec",
    "directed_slot_id",
    "traffic_pattern",
    "traffic_pattern_names",
    "traffic_rank_arrays",
    "PhaseStatistics",
    "SimulationResult",
    "analytic_phase_estimate",
    "simulate_phase",
    "simulate_endpoint_phases",
    "simulate_phases_rounds",
]
