"""Content-addressed construction cache — the memo layer of the runtime.

MaT87's constructions are pure functions of ``(strategy family, guest kind
and shape, host kind and shape)``: two calls with the same key always produce
the node-for-node identical embedding (the differential test harness pins
this).  That makes them ideal for content-addressed memoization across survey
shards and across repeated CLI invocations.

:class:`ConstructionCache` stores, per key, the *portable* payload of an
embedding — the flat host-index sequence plus the strategy name, predicted
dilation and notes — never a live :class:`~repro.core.embedding.Embedding`
object.  The payload is

* **backend-agnostic** — reconstructed under either the array or the loop
  backend, so golden tables are byte-identical with caching on and off;
* **picklable** — the whole cache (a plain dict of tuples/arrays) ships to
  survey worker processes as a warm-start dict and round-trips through
  :meth:`ConstructionCache.save` / :meth:`ConstructionCache.load` so repeated
  ``repro survey`` / ``repro simulate`` invocations skip re-construction
  entirely.

Key format (see ``docs/ARCHITECTURE.md``)::

    ("embedding", <strategy family>, <guest kind>, <guest shape>,
                                     <host kind>,  <host shape>)

The leading namespace tag leaves room for future route/table memo entries in
the same store.
"""

from __future__ import annotations

import pickle
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..utils.atomicio import atomic_write

__all__ = [
    "CachedConstruction",
    "ConstructionCache",
    "OptimizerState",
    "embedding_cache_key",
    "edge_arrays_cache_key",
    "family_cache_key",
    "optimum_cache_key",
]

PathLike = Union[str, Path]

#: Cache keys are flat tuples of strings and int tuples — hashable, picklable
#: and stable across processes and Python versions.
CacheKey = Tuple[object, ...]


def embedding_cache_key(strategy_family: str, guest, host) -> CacheKey:
    """The content address of a construction.

    ``strategy_family`` is :func:`repro.core.dispatch.strategy_for`'s family
    for the paper's dispatcher, or ``"strategy:<name>"`` for registry-built
    competitors (baselines).  The remaining components are the guest and host
    identities — kind plus shape — which fully determine every construction
    the dispatcher can select.
    """
    return (
        "embedding",
        strategy_family,
        guest.kind.value,
        tuple(guest.shape),
        host.kind.value,
        tuple(host.shape),
    )


def edge_arrays_cache_key(graph) -> CacheKey:
    """The address of a graph's memoized derived edge-index arrays.

    ``edge_index_arrays`` is a pure function of the graph identity (kind plus
    shape); memoizing the pair lets batched survey shards — which rebuild
    graph objects from scenario specs — skip the per-signature re-derivation
    entirely.
    """
    return ("edges", graph.kind.value, tuple(graph.shape))


def family_cache_key(guest, host) -> CacheKey:
    """The address of a memoized pair → strategy-family resolution.

    ``strategy_for`` is itself a pure function of the graph identities (it
    runs the expansion/reduction factor searches), so the dispatcher memoizes
    its answer alongside the constructions — a warm cache skips the search as
    well as the build.
    """
    return (
        "family",
        guest.kind.value,
        tuple(guest.shape),
        host.kind.value,
        tuple(host.shape),
    )


def optimum_cache_key(objective: str, guest, host) -> CacheKey:
    """The address of a search-found optimum for a pair, per objective.

    Optima are keyed separately from constructions: the same pair may hold a
    best-known embedding per objective mode (``dilation`` / ``congestion`` /
    ``combined``), and storing them under their own namespace keeps the
    construction memo's byte-identity contract untouched.
    """
    return (
        "optimum",
        objective,
        guest.kind.value,
        tuple(guest.shape),
        host.kind.value,
        tuple(host.shape),
    )


@dataclass(frozen=True)
class OptimizerState:
    """The portable payload of one search-found optimum.

    ``host_indices`` follows the :class:`CachedConstruction` convention (a
    read-only ``int64`` array or a plain int tuple, reconstructable under
    either backend).  ``objective`` is the encoded scalar objective value of
    :mod:`repro.optimize.objective` under ``objective_mode``; ``dilation`` /
    ``congestion`` are the human-readable components, ``steps`` the search
    steps that produced it and ``provenance`` the seed it descended from.
    """

    host_indices: object
    objective: int
    objective_mode: str
    dilation: int
    congestion: Optional[int]
    steps: int
    provenance: str


@dataclass(frozen=True)
class CachedConstruction:
    """The portable payload of one memoized embedding.

    ``host_indices`` is the flat natural-order host rank of every guest rank
    as a read-only NumPy ``int64`` array; it reconstructs under either
    backend.
    """

    host_indices: object
    strategy: str
    predicted_dilation: Optional[int]
    notes: Dict[str, object]


def _portable_indices(embedding):
    """The embedding's host-index array in a picklable, immutable form."""
    array = embedding.host_index_array().copy()
    array.setflags(write=False)
    return array


def _materialize(payload: CachedConstruction, guest, host):
    """Rebuild a live :class:`Embedding` from a cached payload.

    Resolution honours the ambient backend: the array backend rehydrates the
    flat index array directly (sharing the read-only cached array, no copy);
    the loop backend rebuilds the tuple ``mapping`` dict.
    """
    from ..core.embedding import Embedding, use_array_path

    if use_array_path():
        return Embedding.from_index_array(
            guest,
            host,
            payload.host_indices,
            strategy=payload.strategy,
            predicted_dilation=payload.predicted_dilation,
            notes=dict(payload.notes),
        )
    guest_base = guest.radix_base
    host_base = host.radix_base
    mapping = {
        guest_base.to_digits(rank): host_base.to_digits(int(image))
        for rank, image in enumerate(payload.host_indices)
    }
    return Embedding(
        guest=guest,
        host=host,
        mapping=mapping,
        strategy=payload.strategy,
        predicted_dilation=payload.predicted_dilation,
        notes=dict(payload.notes),
    )


class ConstructionCache:
    """A content-addressed, picklable memo store for constructions.

    The backing ``data`` dict is deliberately plain (key tuple →
    :class:`CachedConstruction`): it is the warm-start dict shipped to survey
    workers, the merge unit for worker deltas, and the pickle payload of
    :meth:`save`.  Hit/miss counters are per-instance observability only and
    are not persisted.
    """

    __slots__ = ("data", "hits", "misses")

    def __init__(self, data: Optional[Dict[CacheKey, CachedConstruction]] = None):
        self.data: Dict[CacheKey, CachedConstruction] = dict(data or {})
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.data)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self.data

    def clear(self) -> None:
        self.data.clear()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ #
    # Embedding entries
    # ------------------------------------------------------------------ #
    def fetch_embedding(self, key: CacheKey, guest, host):
        """The memoized embedding for ``key`` rebuilt for ``guest``/``host``,
        or ``None`` on a miss."""
        payload = self.data.get(key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return _materialize(payload, guest, host)

    def store_embedding(self, key: CacheKey, embedding) -> None:
        """Memoize an embedding under its content address."""
        self.data[key] = CachedConstruction(
            host_indices=_portable_indices(embedding),
            strategy=embedding.strategy,
            predicted_dilation=embedding.predicted_dilation,
            notes=dict(embedding.notes),
        )

    @property
    def construction_count(self) -> int:
        """Memoized constructions only — ``len(self)`` also counts the
        family bookkeeping entries, so user-facing reports use this."""
        return sum(1 for key in self.data if key[0] == "embedding")

    # ------------------------------------------------------------------ #
    # Strategy-family entries (memoized ``strategy_for`` answers)
    # ------------------------------------------------------------------ #
    def fetch_family(self, guest, host) -> Optional[Tuple[str, Optional[str]]]:
        """The memoized ``(family, error)`` for a pair, or ``None``.

        ``error`` is the stored :class:`UnsupportedEmbeddingError` message
        for ``"unsupported"`` pairs and ``None`` otherwise.  Family lookups
        are bookkeeping for the embedding entries, so they do not touch the
        hit/miss counters.
        """
        entry = self.data.get(family_cache_key(guest, host))
        if isinstance(entry, str):
            return entry, None
        if isinstance(entry, tuple) and len(entry) == 2:
            return entry
        return None

    def store_family(
        self, guest, host, family: str, error: Optional[str] = None
    ) -> None:
        """Memoize a pair's strategy family.

        ``"unsupported"`` pairs store the dispatcher's error message too, so
        a warm sweep re-raises it directly instead of re-running the failed
        factor searches.
        """
        self.data[family_cache_key(guest, host)] = (
            family if error is None else (family, error)
        )

    # ------------------------------------------------------------------ #
    # Optimizer entries (search-found optima, per objective mode)
    # ------------------------------------------------------------------ #
    def fetch_optimum(self, objective: str, guest, host) -> Optional[OptimizerState]:
        """The stored :class:`OptimizerState` for a pair and objective mode.

        Counts as regular hit/miss traffic: a warm optimum skips (or
        warm-starts) a whole search, which is exactly the reuse the counters
        exist to report.
        """
        state = self.data.get(optimum_cache_key(objective, guest, host))
        if not isinstance(state, OptimizerState):
            self.misses += 1
            return None
        self.hits += 1
        return state

    def store_optimum(self, objective: str, guest, host, state: OptimizerState) -> bool:
        """Keep the best-known optimum for a pair; returns True when stored.

        A worse candidate never overwrites a better stored one, so repeated
        searches (different budgets, different seeds) monotonically improve
        the persisted state.
        """
        key = optimum_cache_key(objective, guest, host)
        existing = self.data.get(key)
        if (
            isinstance(existing, OptimizerState)
            and existing.objective <= state.objective
        ):
            return False
        self.data[key] = state
        return True

    def materialize_optimum(self, state: OptimizerState, guest, host):
        """Rebuild a live ``Embedding`` from a stored optimum (backend-aware)."""
        payload = CachedConstruction(
            host_indices=state.host_indices,
            strategy="optimized",
            predicted_dilation=None,
            notes={
                "objective": state.objective_mode,
                "objective_value": state.objective,
                "search_steps": state.steps,
                "seeded_from": state.provenance,
            },
        )
        return _materialize(payload, guest, host)

    @property
    def optimum_count(self) -> int:
        """Stored search optima (all objective modes)."""
        return sum(1 for key in self.data if key[0] == "optimum")

    # ------------------------------------------------------------------ #
    # Derived-array entries (memoized per-graph tables)
    # ------------------------------------------------------------------ #
    def fetch_edge_arrays(self, graph):
        """The memoized ``edge_index_arrays`` pair of a graph, or ``None``.

        Derived arrays are pure functions of the graph identity, so they are
        content-addressed under ``("edges", kind, shape)``.  Like the family
        entries they are bookkeeping for the embedding memo and do not touch
        the hit/miss counters.
        """
        entry = self.data.get(edge_arrays_cache_key(graph))
        if isinstance(entry, tuple) and len(entry) == 2:
            return entry
        return None

    def store_edge_arrays(self, graph, arrays) -> None:
        """Memoize a graph's ``(u, v)`` edge-endpoint rank arrays."""
        u, v = arrays
        self.data[edge_arrays_cache_key(graph)] = (u, v)

    # ------------------------------------------------------------------ #
    # Sharing and persistence
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[CacheKey, CachedConstruction]:
        """A shallow copy of the backing dict (the warm-start unit)."""
        return dict(self.data)

    def merge(self, entries: Dict[CacheKey, CachedConstruction]) -> int:
        """Fold a warm-start/delta dict into this cache; returns new-entry count."""
        added = 0
        for key, payload in entries.items():
            if key not in self.data:
                added += 1
            self.data[key] = payload
        return added

    def save(self, path: PathLike) -> Path:
        """Persist the backing dict (pickle) for the next invocation.

        The pickle is written atomically (temp file + ``os.replace``), so a
        kill mid-save leaves the previous snapshot intact instead of a torn
        file that cold-starts every later run.  This also makes periodic
        snapshots from the long-running service safe against readers.
        """
        path = Path(path)
        with atomic_write(path, mode="wb") as handle:
            pickle.dump(self.data, handle, protocol=pickle.HIGHEST_PROTOCOL)
        return path

    @classmethod
    def load(cls, path: PathLike) -> "ConstructionCache":
        """A cache warm-started from :meth:`save` output; empty when the file
        is missing or unreadable (a torn write must not kill a run).

        A present-but-corrupt file warns before cold-starting: silently
        losing a warm cache costs every construction of the next sweep, so
        the degradation should be visible.
        """
        path = Path(path)
        if not path.is_file():
            return cls()
        try:
            with path.open("rb") as handle:
                data = pickle.load(handle)
        except Exception as error:  # noqa: BLE001 - any corrupt byte stream cold-starts
            warnings.warn(
                f"construction cache {path} is unreadable "
                f"({type(error).__name__}: {error}); starting cold",
                RuntimeWarning,
                stacklevel=2,
            )
            return cls()
        if not isinstance(data, dict):
            warnings.warn(
                f"construction cache {path} holds {type(data).__name__!s}, "
                "not a cache dict; starting cold",
                RuntimeWarning,
                stacklevel=2,
            )
            return cls()
        return cls(data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConstructionCache({len(self.data)} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )
