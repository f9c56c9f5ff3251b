"""repro — a reproduction of "Embeddings Among Toruses and Meshes" (Ma & Tao, ICPP 1987).

The package builds dilation-optimal (or provably near-optimal) embeddings
among toruses, meshes, lines, rings and hypercubes of equal size, following
the mixed-radix Gray-code constructions of the paper, and provides the
substrates needed to *measure* those embeddings: exact graph models, cost
metrics, baselines, known-optimal comparators and a small interconnection-
network simulator.

Quickstart
----------
>>> from repro import Torus, Mesh, embed
>>> guest = Torus((4, 6))
>>> host = Mesh((2, 2, 2, 3))
>>> embedding = embed(guest, host)
>>> embedding.dilation()
1

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
harnesses that regenerate every figure and result table of the paper.
"""

from .exceptions import (
    InvalidEmbeddingError,
    InvalidRadixError,
    InvalidShapeError,
    NoExpansionError,
    NoReductionError,
    ReproError,
    ShapeMismatchError,
    SimulationError,
    UnsupportedEmbeddingError,
)
from .types import GraphKind, ShapedGraphSpec
from .runtime import ConstructionCache, ExecutionContext, use_context
from .runtime.context import current as current_context
from .numbering import RadixBase, mesh_distance, torus_distance
from .graphs import (
    CartesianGraph,
    Hypercube,
    Line,
    Mesh,
    Ring,
    Torus,
    find_hamiltonian_circuit,
    hamiltonian_path,
    has_hamiltonian_circuit,
    make_graph,
    to_networkx,
)
from .core import (
    Embedding,
    FunctionalEmbedding,
    embed,
    embed_increasing,
    embed_lowering,
    embed_square,
    functional_embed,
    line_in_graph_embedding,
    ring_in_graph_embedding,
    same_shape_embedding,
    strategy_for,
)

# The deliberate public surface (PR 8): `repro.api` bundles the facade
# entry points — embed/measure/simulate/run_survey/optimize plus context
# and cache helpers — with signatures pinned by tests/test_api_surface.py.
from . import api

__version__ = "3.0.0"

__all__ = [
    "__version__",
    # public facade
    "api",
    # exceptions
    "ReproError",
    "InvalidShapeError",
    "InvalidRadixError",
    "InvalidEmbeddingError",
    "ShapeMismatchError",
    "NoExpansionError",
    "NoReductionError",
    "UnsupportedEmbeddingError",
    "SimulationError",
    # types
    "GraphKind",
    "ShapedGraphSpec",
    # runtime
    "ExecutionContext",
    "ConstructionCache",
    "use_context",
    "current_context",
    # numbering
    "RadixBase",
    "mesh_distance",
    "torus_distance",
    # graphs
    "CartesianGraph",
    "Torus",
    "Mesh",
    "Line",
    "Ring",
    "Hypercube",
    "make_graph",
    "to_networkx",
    "has_hamiltonian_circuit",
    "find_hamiltonian_circuit",
    "hamiltonian_path",
    # core
    "Embedding",
    "FunctionalEmbedding",
    "functional_embed",
    "embed",
    "strategy_for",
    "embed_increasing",
    "embed_lowering",
    "embed_square",
    "line_in_graph_embedding",
    "ring_in_graph_embedding",
    "same_shape_embedding",
]
