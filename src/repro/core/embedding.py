"""The :class:`Embedding` type — an injection of guest nodes into host nodes.

Definition 1 of the paper: an embedding ``f`` of ``G = (V_G, E_G)`` in
``H = (V_H, E_H)`` is an injection ``f : V_G -> V_H``; its *dilation cost* is
the maximum distance in ``H`` between the images of adjacent nodes of ``G``.

The class stores the guest graph, the host graph and the mapping, and offers:

* validity checking (:meth:`Embedding.is_valid`, :meth:`Embedding.validate`)
  — the mapping must be total on the guest nodes, land inside the host node
  set and be injective;
* measured costs (:meth:`dilation`, :meth:`average_dilation`,
  :meth:`edge_congestion`) computed from the host graph's exact distances;
* composition (:meth:`compose`) used by the paper's multi-step constructions
  ``G -> G' -> H' -> H``;
* convenient constructors (:meth:`from_callable`, :meth:`identity`,
  :meth:`from_permutation`, :meth:`from_index_array`); and
* :class:`Construction`, the form every construction of :mod:`repro.core`
  is written in once for both backends.

Array-backed representation
---------------------------
An embedding has two equivalent representations and converts between them
lazily:

* ``mapping`` — the historical dict from guest node tuple to host node
  tuple, convenient for construction and inspection;
* :meth:`host_index_array` — a flat NumPy ``int64`` array ``h`` with
  ``h[i]`` the natural-order rank (``u_L^{-1}``) in the host of the image of
  the guest node of rank ``i``.

The array form is the hot path: all cost measures are computed over it with
vectorized mixed-radix arithmetic (:mod:`repro.numbering.arrays`), and
:meth:`compose` reduces to a single gather.  The pure-Python per-edge loops
are retained (the ``"loop"`` backend) as the cross-checked reference.

Which path runs is resolved from the ambient execution context
(:mod:`repro.runtime.context`): wrap calls in
``with use_context(backend="loop")`` to force the reference implementations.
:meth:`Construction.build` is the one place a construction makes that
choice: the array path calls its ``ranks()``, the loop path evaluates its
per-node ``image``.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..exceptions import InvalidEmbeddingError, InvalidRadixError, ShapeMismatchError
from ..graphs.base import CartesianGraph
from ..graphs.paths import dimension_order_path
from ..numbering.arrays import digit_weights, stacked_edge_congestion
from ..numbering.batch import coordinate_ranks
from ..runtime.context import use_array_path
from ..types import Node
from ..utils.listops import apply_permutation

__all__ = [
    "Construction",
    "Embedding",
    "composition",
    "identity_construction",
    "permutation_construction",
    "use_array_path",
]


class Construction(NamedTuple):
    """One construction of the paper, written once for both backends.

    ``image`` maps a guest node tuple to its host node tuple: the per-node
    reference, and the pointwise map that
    :func:`~repro.core.functional.functional_embed` evaluates without
    enumerating the guest.  ``ranks()`` returns the host rank of every guest
    rank as one flat ``int64`` array, the array form of the same map; it
    runs only when called.  Every leaf construction's ``ranks()`` is one
    outer sum of per-dimension terms over memoized sequence tables
    (:func:`~repro.numbering.batch.separable_ranks`); the identity is an
    ``arange``, and :func:`composition`, the subshape padding and the square
    chains gather the ranks of their built steps.
    """

    strategy: str
    predicted_dilation: Optional[int]
    notes: Dict[str, object]
    image: Callable[[Node], Node]
    ranks: Callable[[], np.ndarray]

    def build(self, guest: CartesianGraph, host: CartesianGraph) -> "Embedding":
        """The embedding under the ambient backend: ``ranks()`` on the array
        path, ``image`` node by node on the loop path."""
        if use_array_path():
            return Embedding.from_index_array(
                guest,
                host,
                self.ranks(),
                strategy=self.strategy,
                predicted_dilation=self.predicted_dilation,
                notes=self.notes,
            )
        return Embedding.from_callable(
            guest,
            host,
            self.image,
            strategy=self.strategy,
            predicted_dilation=self.predicted_dilation,
            notes=self.notes,
        )


def identity_construction(guest: CartesianGraph) -> Construction:
    """The identity onto a host of the guest's shape (dilation 1)."""
    return Construction(
        "identity",
        1,
        {},
        lambda node: node,
        lambda: np.arange(guest.size, dtype=np.int64),
    )


def permutation_construction(
    guest: CartesianGraph,
    host: CartesianGraph,
    permutation: Sequence[int],
    strategy: str = "permute-dimensions",
) -> Construction:
    """Node ``A`` maps to ``apply_permutation(permutation, A)`` (dilation 1)."""
    permutation = tuple(permutation)
    return Construction(
        strategy,
        1,
        {"permutation": permutation},
        lambda node: apply_permutation(permutation, node),
        lambda: coordinate_ranks(
            "natural", guest.shape, digit_weights(host.shape), permutation
        ),
    )


def composition(
    inner: "Embedding", outer: "Embedding", strategy: Optional[str] = None
) -> Construction:
    """The construction of ``outer ∘ inner``, of ``inner.guest`` in ``outer.host``.

    ``outer.guest`` must have the same kind and shape as ``inner.host``
    (it is the intermediate graph of a chain such as ``G -> H' -> H``).
    The predicted dilation of the composition is the product of the two
    predictions when both are present (dilation costs compose at most
    multiplicatively); the flag ``dilation_is_upper_bound`` is propagated
    if either step only promises an upper bound.

    In the array representation composition is a single gather:
    ``composed[i] = outer_h[inner_h[i]]`` (the inner image rank in
    ``inner.host`` *is* the rank in ``outer.guest``).
    """
    if (inner.host.kind, inner.host.shape) != (outer.guest.kind, outer.guest.shape):
        raise ShapeMismatchError(
            f"cannot compose: inner host is {inner.host!r} "
            f"but outer guest is {outer.guest!r}"
        )
    predicted: Optional[int] = None
    if inner.predicted_dilation is not None and outer.predicted_dilation is not None:
        predicted = inner.predicted_dilation * outer.predicted_dilation
    notes: Dict[str, object] = {
        "chain": [inner.strategy, outer.strategy],
        "inner_notes": inner.notes,
        "outer_notes": outer.notes,
    }
    if inner.notes.get("dilation_is_upper_bound") or outer.notes.get(
        "dilation_is_upper_bound"
    ):
        notes["dilation_is_upper_bound"] = True
    elif predicted is not None and predicted > 1:
        # Products of exact dilations are still only upper bounds for the
        # composite (a shorter route may exist in the final host).
        notes["dilation_is_upper_bound"] = True
    return Construction(
        strategy or f"{inner.strategy} ∘ {outer.strategy}",
        predicted,
        notes,
        lambda node: outer.mapping[inner.mapping[node]],
        lambda: outer.host_index_array()[inner.host_index_array()],
    )


class Embedding:
    """An injection of the nodes of ``guest`` into the nodes of ``host``.

    Attributes
    ----------
    guest, host:
        The two graphs.  The paper studies same-size embeddings; the class
        allows ``host.size >= guest.size`` so that sub-graph embeddings can
        also be represented, but the constructors used by the paper's
        strategies always produce same-size (bijective) embeddings.
    mapping:
        Dict from guest node tuple to host node tuple.  Materialized lazily
        when the embedding was built from a host-index array.
    strategy:
        Human-readable name of the construction that produced the embedding.
    predicted_dilation:
        The dilation cost promised by the paper's theorem for this
        construction (``None`` when no prediction applies).  The measured
        dilation (:meth:`dilation`) is computed independently so the two can
        be compared in tests and experiment reports.
    notes:
        Free-form metadata (expansion factors used, chain steps, ...).
    """

    __slots__ = (
        "guest",
        "host",
        "strategy",
        "predicted_dilation",
        "notes",
        "_mapping",
        "_host_indices",
        "_edge_dilations",
    )

    def __init__(
        self,
        guest: CartesianGraph,
        host: CartesianGraph,
        mapping: Optional[Mapping[Node, Node]] = None,
        strategy: str = "custom",
        predicted_dilation: Optional[int] = None,
        notes: Optional[Dict[str, object]] = None,
        *,
        host_index_array=None,
    ):
        if mapping is None and host_index_array is None:
            raise InvalidEmbeddingError(
                "an Embedding needs a mapping dict or a host_index_array"
            )
        self.guest = guest
        self.host = host
        self.strategy = strategy
        self.predicted_dilation = predicted_dilation
        self.notes: Dict[str, object] = notes if notes is not None else {}
        self._mapping: Optional[Dict[Node, Node]] = (
            dict(mapping) if mapping is not None else None
        )
        self._host_indices = None
        self._edge_dilations = None
        if host_index_array is not None:
            array = np.ascontiguousarray(host_index_array, dtype=np.int64)
            if array.ndim != 1:
                raise InvalidEmbeddingError(
                    f"host_index_array must be 1-D, got shape {array.shape}"
                )
            self._host_indices = array

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_callable(
        cls,
        guest: CartesianGraph,
        host: CartesianGraph,
        func: Callable[[Node], Node],
        *,
        strategy: str = "custom",
        predicted_dilation: Optional[int] = None,
        notes: Optional[Dict[str, object]] = None,
    ) -> "Embedding":
        """Materialize an embedding from a node-mapping function."""
        mapping = {node: tuple(func(node)) for node in guest.nodes()}
        return cls(
            guest=guest,
            host=host,
            mapping=mapping,
            strategy=strategy,
            predicted_dilation=predicted_dilation,
            notes=dict(notes or {}),
        )

    @classmethod
    def from_index_array(
        cls,
        guest: CartesianGraph,
        host: CartesianGraph,
        host_indices,
        *,
        strategy: str = "custom",
        predicted_dilation: Optional[int] = None,
        notes: Optional[Dict[str, object]] = None,
    ) -> "Embedding":
        """Build an embedding from a flat host-index array.

        ``host_indices[i]`` is the natural-order rank in the host of the
        image of the guest node of rank ``i``.  The tuple ``mapping`` is
        materialized lazily on first access, so survey-scale pipelines that
        only measure costs never pay for it.
        """
        embedding = cls(
            guest=guest,
            host=host,
            strategy=strategy,
            predicted_dilation=predicted_dilation,
            notes=dict(notes or {}),
            host_index_array=host_indices,
        )
        if len(embedding._host_indices) != guest.size:
            raise InvalidEmbeddingError(
                f"host_index_array covers {len(embedding._host_indices)} of "
                f"{guest.size} guest nodes"
            )
        return embedding

    @classmethod
    def identity(cls, guest: CartesianGraph, host: CartesianGraph) -> "Embedding":
        """The identity embedding between two graphs of the same shape.

        Used by Lemma 36 for same-shape pairs (except torus -> non-hypercube
        mesh, which needs :func:`repro.core.same_shape.torus_in_mesh_same_shape`).
        """
        if guest.shape != host.shape:
            raise ShapeMismatchError(
                f"identity embedding requires equal shapes, got {guest.shape} and {host.shape}"
            )
        return identity_construction(guest).build(guest, host)

    @classmethod
    def from_permutation(
        cls,
        guest: CartesianGraph,
        host: CartesianGraph,
        permutation: Sequence[int],
        *,
        strategy: str = "permute-dimensions",
    ) -> "Embedding":
        """Embed by permuting coordinate positions.

        ``permutation`` must satisfy
        ``apply_permutation(permutation, guest.shape) == host.shape``; node
        ``A`` of the guest maps to ``apply_permutation(permutation, A)``.
        Neighbours remain neighbours (the coordinate that changes is simply
        relocated), so the dilation cost is 1 whenever the guest's edges are
        a subset of the host's edges under the renaming — i.e. for
        same-kind pairs and for mesh guests in torus hosts.
        """
        permuted_shape = apply_permutation(permutation, guest.shape)
        if tuple(permuted_shape) != tuple(host.shape):
            raise ShapeMismatchError(
                f"permutation {tuple(permutation)} maps shape {guest.shape} to "
                f"{tuple(permuted_shape)}, but the host shape is {host.shape}"
            )
        if guest.is_torus and host.is_mesh and not guest.is_hypercube:
            raise InvalidEmbeddingError(
                "a permutation embedding of a (non-hypercube) torus in a mesh does not "
                "preserve adjacency; use the same-shape T_L embedding instead"
            )
        construction = permutation_construction(guest, host, permutation, strategy)
        return construction.build(guest, host)

    # ------------------------------------------------------------------ #
    # Representations
    # ------------------------------------------------------------------ #
    @property
    def mapping(self) -> Dict[Node, Node]:
        """Dict from guest node tuple to host node tuple (lazily materialized)."""
        if self._mapping is None:
            guest_base = self.guest.radix_base
            host_base = self.host.radix_base
            self._mapping = {
                guest_base.to_digits(rank): host_base.to_digits(int(image))
                for rank, image in enumerate(self._host_indices)
            }
        return self._mapping

    def host_index_array(self):
        """The flat array form: host rank of the image of guest rank ``i``.

        Cached after the first call; building it from a dict ``mapping`` is a
        one-off O(n·d) conversion.
        """
        if self._host_indices is None:
            guest_base = self.guest.radix_base
            host_base = self.host.radix_base
            mapping = self._mapping
            self._host_indices = np.fromiter(
                (
                    host_base.from_digits(mapping[guest_base.to_digits(rank)])
                    for rank in range(self.guest.size)
                ),
                dtype=np.int64,
                count=self.guest.size,
            )
        return self._host_indices

    def guest_index_array(self):
        """The guest ranks ``0..|V_G|-1`` (trivially ``arange``; for symmetry)."""
        return np.arange(self.guest.size, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def __getitem__(self, node: Sequence[int]) -> Node:
        return self.mapping[tuple(node)]

    def __contains__(self, node: Sequence[int]) -> bool:
        return tuple(node) in self.mapping

    def __len__(self) -> int:
        if self._mapping is not None:
            return len(self._mapping)
        return len(self._host_indices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Embedding):
            return NotImplemented
        return (
            self.guest == other.guest
            and self.host == other.host
            and self.strategy == other.strategy
            and self.predicted_dilation == other.predicted_dilation
            and self.notes == other.notes
            and self.mapping == other.mapping
        )

    def map_index(self, index: int) -> Node:
        """Image of the guest node with natural-order rank ``index``.

        For 1-dimensional guests this is the paper's integer-node shorthand:
        ``map_index(x)`` is the image of node ``x`` of the line/ring.
        """
        if self._mapping is None:
            if not 0 <= index < len(self._host_indices):
                # Mirror the dict-backed path, where guest.index_node raises;
                # otherwise NumPy's negative indexing would return a
                # plausible-but-wrong node.
                raise InvalidRadixError(
                    f"value {index} is out of range for radix-base "
                    f"{self.guest.shape} (size {self.guest.size})"
                )
            return self.host.index_node(int(self._host_indices[index]))
        return self._mapping[self.guest.index_node(index)]

    def image(self) -> List[Node]:
        """All host nodes used by the embedding, in guest natural order."""
        return [self.mapping[node] for node in self.guest.nodes()]

    def inverse_mapping(self) -> Dict[Node, Node]:
        """Host-node -> guest-node mapping (defined on the image only)."""
        return {image: node for node, image in self.mapping.items()}

    # ------------------------------------------------------------------ #
    # Validity
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise :class:`InvalidEmbeddingError` unless this is a valid embedding."""
        if self.guest.size > self.host.size:
            raise ShapeMismatchError(
                f"guest has {self.guest.size} nodes but host only {self.host.size}"
            )
        if self._mapping is None and use_array_path():
            self._validate_array()
            return
        if len(self.mapping) != self.guest.size:
            raise InvalidEmbeddingError(
                f"mapping covers {len(self.mapping)} of {self.guest.size} guest nodes"
            )
        images = set()
        for node, image in self.mapping.items():
            if not self.guest.contains(node):
                raise InvalidEmbeddingError(f"{node!r} is not a node of the guest graph")
            if not self.host.contains(image):
                raise InvalidEmbeddingError(f"image {image!r} is not a node of the host graph")
            if image in images:
                raise InvalidEmbeddingError(f"image {image!r} is used more than once")
            images.add(image)

    def _validate_array(self) -> None:
        """Vectorized validity check for array-backed embeddings."""
        indices = self._host_indices
        if len(indices) != self.guest.size:
            raise InvalidEmbeddingError(
                f"mapping covers {len(indices)} of {self.guest.size} guest nodes"
            )
        if indices.size and (indices.min() < 0 or indices.max() >= self.host.size):
            bad = int(indices[(indices < 0) | (indices >= self.host.size)][0])
            raise InvalidEmbeddingError(
                f"image rank {bad} is not a node of the host graph"
            )
        values, counts = np.unique(indices, return_counts=True)
        if values.size != indices.size:
            duplicate = self.host.index_node(int(values[counts > 1][0]))
            raise InvalidEmbeddingError(f"image {duplicate!r} is used more than once")

    def is_valid(self) -> bool:
        """True when :meth:`validate` does not raise."""
        try:
            self.validate()
        except (InvalidEmbeddingError, ShapeMismatchError):
            return False
        return True

    def is_bijective(self) -> bool:
        """True when the embedding uses every host node (same-size embeddings)."""
        return self.is_valid() and self.guest.size == self.host.size

    # ------------------------------------------------------------------ #
    # Costs
    # ------------------------------------------------------------------ #
    def edge_dilations(self) -> List[int]:
        """Distance in the host between the images of every guest edge.

        The historical per-edge Python loop, in :meth:`CartesianGraph.edges`
        order.  Kept as the cross-checked reference implementation of the
        vectorized :meth:`edge_dilation_array`.
        """
        return [
            self.host.distance(self.mapping[a], self.mapping[b])
            for a, b in self.guest.edges()
        ]

    def edge_dilation_array(self):
        """Vectorized per-edge host distances (``int64`` array).

        Edge order follows :meth:`CartesianGraph.edge_index_arrays` (grouped
        by dimension), so the array is a permutation of
        :meth:`edge_dilations`; the max/mean used by the cost measures are
        unaffected.  Cached — dilation, average dilation and the prediction
        check share one computation.
        """
        if self._edge_dilations is None:
            u, v = self.guest.edge_index_arrays()
            images = self.host_index_array()
            self._edge_dilations = self.host.distance_indices(images[u], images[v])
        return self._edge_dilations

    def dilation(self) -> int:
        """The measured dilation cost (Definition 1)."""
        if use_array_path():
            dilations = self.edge_dilation_array()
            return int(dilations.max()) if dilations.size else 0
        dilations = self.edge_dilations()
        return max(dilations) if dilations else 0

    def average_dilation(self) -> float:
        """Mean distance in the host over all guest edges."""
        if use_array_path():
            dilations = self.edge_dilation_array()
            return float(dilations.mean()) if dilations.size else 0.0
        dilations = self.edge_dilations()
        return sum(dilations) / len(dilations) if dilations else 0.0

    def expansion_cost(self) -> float:
        """``|V_H| / |V_G|`` — always 1 for the paper's same-size embeddings."""
        return self.host.size / self.guest.size

    def edge_congestion(self) -> int:
        """Maximum number of guest edges routed over a single host edge.

        Each guest edge is routed along the dimension-ordered shortest path
        between its endpoint images; the congestion of a host edge is the
        number of such paths that traverse it.  (Congestion is not analysed
        by the paper but is a standard companion cost and is reported in the
        experiment harness.)  The vectorized path reproduces the per-edge
        loop exactly, including the torus tie-break towards increasing
        coordinates.
        """
        if use_array_path():
            return self._edge_congestion_array()
        load: Dict[Tuple[Node, Node], int] = {}
        for a, b in self.guest.edges():
            path = dimension_order_path(self.host, self.mapping[a], self.mapping[b])
            for u, v in zip(path, path[1:]):
                key = (u, v) if self.host.node_index(u) < self.host.node_index(v) else (v, u)
                load[key] = load.get(key, 0) + 1
        return max(load.values()) if load else 0

    def _edge_congestion_array(self) -> int:
        """Vectorized congestion via the stacked difference-array kernel.

        Delegates to :func:`repro.numbering.arrays.stacked_edge_congestion`
        with a batch of one, so this method and the survey's batched
        evaluation share a single implementation.
        """
        u, v = self.guest.edge_index_arrays()
        if u.size == 0:
            return 0
        return int(
            stacked_edge_congestion(
                self.host_index_array(),
                u,
                v,
                self.host.shape,
                torus=self.host.is_torus,
            )[0]
        )

    def matches_prediction(self, *, measured: Optional[int] = None) -> bool:
        """True when the measured dilation equals the theorem's prediction.

        If no prediction was recorded the check is vacuously true.  Note that
        the general-reduction torus->mesh case (Theorem 43(iii)) and the
        square chains only promise an *upper bound*; for those strategies the
        constructors record the bound under ``notes['dilation_is_upper_bound']``
        and this method checks ``measured <= predicted`` instead.

        Callers that already measured the dilation can pass it via
        ``measured`` to avoid recomputation (and to keep a forced backend
        override consistent across all reported numbers).
        """
        if self.predicted_dilation is None:
            return True
        if measured is None:
            measured = self.dilation()
        if self.notes.get("dilation_is_upper_bound"):
            return measured <= self.predicted_dilation
        return measured == self.predicted_dilation

    # ------------------------------------------------------------------ #
    # Composition
    # ------------------------------------------------------------------ #
    def compose(
        self, outer: "Embedding", *, strategy: Optional[str] = None
    ) -> "Embedding":
        """The embedding ``outer ∘ self``: :func:`composition` built under the
        ambient backend."""
        return composition(self, outer, strategy).build(self.guest, outer.host)

    # ------------------------------------------------------------------ #
    # Presentation
    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        """One-line human-readable description used by the CLI and examples."""
        predicted = (
            "?" if self.predicted_dilation is None else str(self.predicted_dilation)
        )
        return (
            f"{self.guest!r} -> {self.host!r} via {self.strategy}: "
            f"dilation {self.dilation()} (predicted {predicted})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Embedding({self.guest!r} -> {self.host!r}, strategy={self.strategy!r}, "
            f"predicted_dilation={self.predicted_dilation!r})"
        )
