"""Scenario generation for embedding surveys.

A :class:`Scenario` names one guest/host pair by kind and shape — plain
strings and integer tuples so that scenarios pickle cheaply across worker
processes and serialize to JSON/CSV without adapters.

Two generation modes:

* :func:`all_pairs` — the exhaustive sweep: every ordered pair of shapes
  with the same node count up to a budget, crossed with every
  (guest kind, host kind) combination.  The paper studies same-size
  embeddings only (Definition 1 plus the bijectivity of ``u_L``), so pairs
  are grouped by node count.
* :func:`scenarios_for_suite` — named suites mirroring the paper's result
  tables (Section 3 basic embeddings, the Section 5 square chains, the
  worked figures) plus a tiny deterministic ``smoke`` suite for CI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..graphs.base import CartesianGraph, make_graph
from ..graphs.faults import FaultSpec
from ..types import Shape

__all__ = [
    "Scenario",
    "shapes_up_to",
    "all_pairs",
    "scenarios_for_suite",
    "suite_names",
    "SIMULATION_STRATEGIES",
    "SIMULATION_TRAFFIC",
    "FAULT_STRATEGIES",
]

_KIND_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("torus", "torus"),
    ("torus", "mesh"),
    ("mesh", "torus"),
    ("mesh", "mesh"),
)


@dataclass(frozen=True, order=True)
class Scenario:
    """One guest/host pair of a survey, identified by kinds and shapes.

    Three scenario flavours share the type:

    * *embedding scenarios* (``traffic == ""``, the default) — embed with the
      paper's dispatcher and measure the vectorized costs.  The guest may be
      strictly smaller than the host (an *expansion* pair): the dispatcher
      then produces an injective sub-embedding;
    * *simulation scenarios* (``traffic`` names a pattern of
      :func:`repro.netsim.traffic.traffic_pattern`) — build the embedding
      named by ``strategy`` (the paper's dispatcher or a baseline), place the
      traffic on the host network and run the store-and-forward simulation;
    * *fault scenarios* (``faults`` carries a
      :class:`~repro.graphs.faults.FaultSpec` token like ``n1l2s5``) — build
      the strategy on the pristine host, knock out the spec's nodes/links,
      repair the embedding around the dead images and measure the degraded
      dilation over surviving routes; with ``traffic`` also set, the phase
      simulation runs fault-aware (BFS detours around cut routes).
    """

    guest_kind: str
    guest_shape: Shape
    host_kind: str
    host_shape: Shape
    strategy: str = "paper"
    traffic: str = ""
    faults: str = ""

    @property
    def scenario_id(self) -> str:
        """Canonical id (stable sort key), e.g. ``torus:4,6->mesh:2,2,2,3``;
        simulation scenarios append ``|<strategy>|<traffic>`` and fault
        scenarios ``|<strategy>|<traffic>|<faults>`` (traffic may be empty).
        Any non-default strategy — e.g. the ``optimize`` search scenarios —
        also appends the ``|<strategy>|<traffic>`` block (with an empty
        traffic cell), so ids never collide with the plain embedding form."""
        guest = ",".join(str(length) for length in self.guest_shape)
        host = ",".join(str(length) for length in self.host_shape)
        base = f"{self.guest_kind}:{guest}->{self.host_kind}:{host}"
        if self.faults:
            return f"{base}|{self.strategy}|{self.traffic}|{self.faults}"
        if self.traffic or self.strategy != "paper":
            return f"{base}|{self.strategy}|{self.traffic}"
        return base

    @property
    def nodes(self) -> int:
        """Node count of the guest (== host for same-size pairs)."""
        return math.prod(self.guest_shape)

    def guest_graph(self) -> CartesianGraph:
        return make_graph(self.guest_kind, self.guest_shape)

    def host_graph(self) -> CartesianGraph:
        return make_graph(self.host_kind, self.host_shape)

    def fault_spec(self) -> Optional[FaultSpec]:
        """The parsed :class:`FaultSpec`, or ``None`` for pristine scenarios."""
        return FaultSpec.from_token(self.faults) if self.faults else None

    @classmethod
    def from_id(cls, scenario_id: str) -> "Scenario":
        """Parse the :attr:`scenario_id` format back into a Scenario."""
        strategy, traffic, faults = "paper", "", ""
        if "|" in scenario_id:
            parts = scenario_id.split("|")
            if len(parts) == 4:
                scenario_id, strategy, traffic, faults = parts
            else:
                scenario_id, strategy, traffic = parts
        guest_text, host_text = scenario_id.split("->", 1)
        guest_kind, guest_shape = guest_text.split(":", 1)
        host_kind, host_shape = host_text.split(":", 1)
        return cls(
            guest_kind=guest_kind,
            guest_shape=tuple(int(p) for p in guest_shape.split(",")),
            host_kind=host_kind,
            host_shape=tuple(int(p) for p in host_shape.split(",")),
            strategy=strategy,
            traffic=traffic,
            faults=faults,
        )


def shapes_up_to(
    max_nodes: int, *, min_len: int = 2, max_dim: int = 4, min_nodes: int = 4
) -> List[Shape]:
    """All shapes with ``min_nodes <= Π l_i <= max_nodes`` in deterministic order.

    Every dimension length is at least ``min_len`` (the radix-base
    requirement ``l_j > 1``) and at most ``max_dim`` dimensions are used.
    Shapes are ordered by node count, then dimension, then lexicographically,
    so two runs over the same budget enumerate identical scenario lists.
    """
    if max_nodes < min_nodes:
        return []
    found: List[Shape] = []

    def extend(prefix: Tuple[int, ...], product: int) -> None:
        if prefix and product >= min_nodes:
            found.append(prefix)
        if len(prefix) == max_dim:
            return
        length = min_len
        while product * length <= max_nodes:
            extend(prefix + (length,), product * length)
            length += 1

    extend((), 1)
    found.sort(key=lambda shape: (math.prod(shape), len(shape), shape))
    return found


def all_pairs(
    max_nodes: int,
    *,
    min_len: int = 2,
    max_dim: int = 4,
    min_nodes: int = 4,
    include_identical: bool = False,
) -> List[Scenario]:
    """The exhaustive same-size sweep up to a node budget.

    Every ordered pair of same-product shapes is crossed with the four
    (guest kind, host kind) combinations.  ``include_identical`` keeps the
    pairs where guest and host are the same kind *and* shape (the identity
    embedding); they are excluded by default as trivial.
    """
    by_size: Dict[int, List[Shape]] = {}
    for shape in shapes_up_to(max_nodes, min_len=min_len, max_dim=max_dim, min_nodes=min_nodes):
        by_size.setdefault(math.prod(shape), []).append(shape)
    scenarios: List[Scenario] = []
    for size in sorted(by_size):
        group = by_size[size]
        for guest_shape in group:
            for host_shape in group:
                for guest_kind, host_kind in _KIND_PAIRS:
                    if (
                        not include_identical
                        and guest_kind == host_kind
                        and guest_shape == host_shape
                    ):
                        continue
                    scenarios.append(
                        Scenario(guest_kind, guest_shape, host_kind, host_shape)
                    )
    return scenarios


# --------------------------------------------------------------------- #
# Named suites
# --------------------------------------------------------------------- #
def _suite_smoke() -> List[Scenario]:
    """A tiny deterministic suite for CI: a few pairs per strategy family."""
    pairs = [
        ("torus", (4, 6), "mesh", (2, 2, 2, 3)),      # increasing (Theorem 32)
        ("mesh", (4, 6), "torus", (24,)),             # lowering to a ring
        ("torus", (3, 4), "mesh", (3, 4)),            # same-shape T_L (Lemma 36)
        ("mesh", (2, 3, 4), "mesh", (4, 3, 2)),       # permute dimensions
        ("mesh", (24,), "torus", (2, 3, 4)),          # line via f_L (Section 3)
        ("torus", (24,), "mesh", (4, 6)),             # ring via h_L (Section 3)
        ("mesh", (3, 3, 6), "mesh", (6, 9)),          # lowering-general (Figure 12)
        ("torus", (4, 4), "torus", (2, 2, 2, 2)),     # square chain / expansion
    ]
    return [Scenario(gk, gs, hk, hs) for gk, gs, hk, hs in pairs]


def _suite_basic(max_nodes: int) -> List[Scenario]:
    """Section 3's table: lines and rings into every shape up to the budget."""
    scenarios: List[Scenario] = []
    for shape in shapes_up_to(max_nodes, min_nodes=4):
        if len(shape) == 1:
            continue
        size = math.prod(shape)
        for host_kind in ("mesh", "torus"):
            scenarios.append(Scenario("mesh", (size,), host_kind, shape))
            scenarios.append(Scenario("torus", (size,), host_kind, shape))
    return scenarios


def _suite_squares(max_nodes: int) -> List[Scenario]:
    """The Section 5 square chains: ``l^k`` guests into ``m^j`` hosts."""
    squares: List[Shape] = []
    for length in range(2, max_nodes + 1):
        for dim in range(1, 13):
            if length**dim > max_nodes:
                break
            squares.append((length,) * dim)
    scenarios: List[Scenario] = []
    for guest_shape in squares:
        for host_shape in squares:
            if guest_shape == host_shape:
                continue
            if math.prod(guest_shape) != math.prod(host_shape):
                continue
            for guest_kind, host_kind in _KIND_PAIRS:
                scenarios.append(Scenario(guest_kind, guest_shape, host_kind, host_shape))
    return scenarios


#: Embedding strategies crossed into the simulation suite (resolved by the
#: runtime's plugin registry, :mod:`repro.runtime.registry`: the paper's
#: dispatcher plus the baselines).
SIMULATION_STRATEGIES: Tuple[str, ...] = ("paper", "lexicographic", "bfs", "random")

#: Traffic patterns crossed into the simulation suite (resolved by
#: :func:`repro.netsim.traffic.traffic_pattern`).
SIMULATION_TRAFFIC: Tuple[str, ...] = (
    "neighbor-exchange",
    "transpose",
    "all-to-all-groups",
    "random-permutation",
    "hotspot",
    "bursty",
)

#: Strategies crossed into the degraded-host suite — the paper's dispatcher
#: against the re-mapping baselines, all repaired around the same faults.
FAULT_STRATEGIES: Tuple[str, ...] = ("paper", "bfs", "random")


def _suite_simulation(max_nodes: int) -> List[Scenario]:
    """The end-to-end pipeline sweep: embed → place → route → simulate.

    Known-good guest/host pairs (every strategy applies, every guest is
    multi-dimensional so no pattern degenerates) crossed with each embedding
    strategy and each traffic pattern.  Pairs above the node budget are
    dropped, so ``--max-nodes 48`` (the CLI default) keeps a CI-friendly
    sweep while larger budgets add the paper's task-mapping scenarios.
    """
    pairs = [
        ("torus", (4, 6), "mesh", (2, 2, 2, 3)),
        ("mesh", (4, 6), "torus", (24,)),
        ("torus", (3, 4), "mesh", (3, 4)),
        ("torus", (4, 4), "mesh", (2, 2, 2, 2)),
        ("torus", (8, 8), "mesh", (4, 4, 4)),
        ("mesh", (16, 4), "torus", (4, 4, 4)),
        ("torus", (4, 4, 4), "mesh", (8, 8)),
        # Table-scale task-mapping pairs (the paper's result tables reach
        # thousands of nodes); included only when the node budget allows.
        ("torus", (16, 16), "mesh", (4, 4, 4, 4)),
        ("mesh", (16, 16), "torus", (4, 4, 4, 4)),
        ("torus", (4, 4, 4, 4), "mesh", (16, 16)),
    ]
    scenarios: List[Scenario] = []
    for guest_kind, guest_shape, host_kind, host_shape in pairs:
        if math.prod(guest_shape) > max_nodes:
            continue
        for strategy in SIMULATION_STRATEGIES:
            for traffic in SIMULATION_TRAFFIC:
                scenarios.append(
                    Scenario(
                        guest_kind,
                        guest_shape,
                        host_kind,
                        host_shape,
                        strategy=strategy,
                        traffic=traffic,
                    )
                )
    return scenarios


def _suite_expansion() -> List[Scenario]:
    """Unequal-size pairs: a smaller guest sub-embedded into a larger host.

    Every supported pair routes through the dispatcher's ``subshape``
    strategy (componentwise sub-box plus an inner same-size embed).  The two
    unsupported pairs stay in the suite to pin the graceful ``unsupported``
    record: one host has no sub-box of the guest's size, the other has one
    that the guest does not reduce to.
    """
    pairs = [
        ("torus", (2, 3), "mesh", (3, 4)),     # 6 tasks on 12 processors
        ("mesh", (4,), "torus", (3, 3)),       # line into a larger torus
        ("torus", (2, 2, 2), "mesh", (4, 4)),  # cube into a square
        ("mesh", (3, 3), "torus", (4, 3)),     # same-width sub-box
        ("torus", (4, 4), "mesh", (4, 5)),     # one spare column
        ("torus", (6,), "mesh", (3, 3)),       # ring via h_L in a sub-box
        ("mesh", (8,), "mesh", (3, 4)),        # line in a 4x2 sub-box
        ("mesh", (2, 6), "mesh", (4, 4)),      # sub-box (4, 3) is no reduction
        ("mesh", (24,), "mesh", (5, 5)),       # no sub-box: unsupported
    ]
    return [Scenario(gk, gs, hk, hs) for gk, gs, hk, hs in pairs]


def _suite_faults() -> List[Scenario]:
    """Degraded hosts: seeded node/link knockouts, repair and re-measurement.

    Same-size pairs use link-only faults (no free processors to repair onto);
    expansion pairs add node faults, exercised against every re-mapping
    strategy.  One traffic scenario runs the fault-aware store-and-forward
    simulation end to end.
    """
    entries = [
        # (pair, fault token): link-only on the same-size pair, node+link on
        # the expansion pairs (their free processors absorb repairs).
        (("torus", (3, 4), "mesh", (3, 4)), "n0l2s7"),
        (("torus", (2, 3), "mesh", (3, 4)), "n1l1s5"),
        (("mesh", (8,), "mesh", (3, 4)), "n2l0s3"),
    ]
    scenarios = [
        Scenario(gk, gs, hk, hs, strategy=strategy, faults=token)
        for (gk, gs, hk, hs), token in entries
        for strategy in FAULT_STRATEGIES
    ]
    scenarios.append(
        Scenario(
            "torus",
            (2, 3),
            "mesh",
            (3, 4),
            strategy="paper",
            traffic="neighbor-exchange",
            faults="n1l1s5",
        )
    )
    return scenarios


def _suite_optima() -> List[Scenario]:
    """The search suite: can the optimizer beat (or match) the constructions?

    Same-size pairs run through :func:`repro.optimize.optimize_embedding`
    under the fixed :data:`repro.optimize.SUITE_OPTIONS` configuration, so
    the records — including the ``search_objective`` / ``search_steps`` /
    ``improved`` columns — are deterministic and golden-pinned.  The
    ``torus:8,8->mesh:8,8`` pair is the acceptance-pinned one: the paper's
    dilation-2 folding is in the seed population, so the searched objective
    is never worse than the construction's.
    """
    pairs = [
        ("torus", (8, 8), "mesh", (8, 8)),   # the pinned pair (T_L folding)
        ("torus", (4, 4), "mesh", (4, 4)),   # small same-shape torus drop
        ("mesh", (4, 4), "torus", (4, 4)),   # dilation-1 identity: search ties
        ("mesh", (2, 12), "torus", (4, 6)),  # no paper construction: search improves
        ("torus", (3, 8), "mesh", (6, 4)),   # no paper construction: baseline seeds
    ]
    return [Scenario(gk, gs, hk, hs, strategy="optimize") for gk, gs, hk, hs in pairs]


def _suite_figures() -> List[Scenario]:
    """The worked figures of the paper (Figures 10-12 plus the abstract pair)."""
    pairs = [
        ("mesh", (24,), "mesh", (4, 2, 3)),
        ("torus", (24,), "mesh", (4, 2, 3)),
        ("torus", (4, 6), "mesh", (2, 2, 2, 3)),
        ("mesh", (3, 3, 6), "mesh", (6, 9)),
    ]
    return [Scenario(gk, gs, hk, hs) for gk, gs, hk, hs in pairs]


def scenarios_for_suite(suite: str, *, max_nodes: int = 64) -> List[Scenario]:
    """Scenarios of a named suite (see :func:`suite_names`).

    ``exhaustive`` is the :func:`all_pairs` sweep over ``max_nodes``; the
    other suites mirror the paper's tables and figures.
    """
    if suite == "exhaustive":
        return all_pairs(max_nodes)
    if suite == "smoke":
        return _suite_smoke()
    if suite == "basic":
        return _suite_basic(max_nodes)
    if suite == "squares":
        return _suite_squares(max_nodes)
    if suite == "figures":
        return _suite_figures()
    if suite == "simulation":
        return _suite_simulation(max_nodes)
    if suite == "expansion":
        return _suite_expansion()
    if suite == "faults":
        return _suite_faults()
    if suite == "optima":
        return _suite_optima()
    raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(suite_names())}")


def suite_names() -> List[str]:
    """The named suites accepted by :func:`scenarios_for_suite`."""
    return [
        "exhaustive",
        "smoke",
        "basic",
        "squares",
        "figures",
        "simulation",
        "expansion",
        "faults",
        "optima",
    ]
