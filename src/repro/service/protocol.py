"""Wire format of the embedding service.

One request names one query — embed a guest in a host and measure the costs,
or additionally place a traffic pattern and simulate a communication phase —
as plain strings and flags, so that a request round-trips through JSON, a
command line or a test without adapters:

.. code-block:: json

    {"op": "embed",    "guest": "torus:4,6", "host": "mesh:2,2,2,3"}
    {"op": "simulate", "guest": "torus:8,8", "host": "mesh:4,16",
     "strategy": "paper", "traffic": "transpose"}

A validated :class:`ServiceRequest` converts losslessly to the survey
layer's :class:`~repro.survey.scenarios.Scenario` — the service answers
requests with exactly the records a survey would produce for the same
scenario, which is what makes the coalesced path's byte-identity contract
testable against :func:`repro.survey.runner.evaluate_scenario`.

Grouping happens on :attr:`ServiceRequest.signature` — the
``(guest kind+shape, host kind+shape)`` pair, the same key the batched shard
evaluator (:mod:`repro.survey.batch`) stacks by.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Tuple

from ..survey.scenarios import Scenario
from ..types import GraphKind

__all__ = [
    "OPS",
    "ProtocolError",
    "ServiceRequest",
    "parse_graph_spec",
]

#: The operations the service answers.  ``embed`` measures the paper
#: dispatcher's construction; ``simulate`` builds the named strategy, places
#: the named traffic pattern and runs the store-and-forward phase simulation.
OPS = ("embed", "simulate")


class ProtocolError(ValueError):
    """A malformed request: unknown operation, bad graph spec, stray field."""


def parse_graph_spec(spec: str) -> Tuple[str, Tuple[int, ...]]:
    """Parse ``kind:shape`` strings such as ``torus:4,6`` into (kind, shape).

    Accepts the same conveniences as the CLI: ``ring:<n>`` (1-D torus),
    ``line:<n>`` (1-D mesh) and ``hypercube:<d>`` (shape ``(2, ..., 2)``),
    and ``x`` as an extent separator (``torus:8x8`` == ``torus:8,8``).
    Raises :class:`ProtocolError` on anything unparseable.
    """
    try:
        kind_text, shape_text = spec.split(":", 1)
        kind_text = kind_text.strip().lower()
        shape_text = shape_text.lower().replace("x", ",")
        shape = tuple(int(part) for part in shape_text.split(",") if part.strip())
        if not shape or any(length < 1 for length in shape):
            raise ValueError(f"shape {shape} must be non-empty positive extents")
        if kind_text == "ring":
            (size,) = shape
            return GraphKind.TORUS.value, (size,)
        if kind_text == "line":
            (size,) = shape
            return GraphKind.MESH.value, (size,)
        if kind_text == "hypercube":
            (dimension,) = shape
            return GraphKind.TORUS.value, (2,) * dimension
        return GraphKind(kind_text).value, shape
    except ProtocolError:
        raise
    except Exception as error:
        raise ProtocolError(
            f"could not parse graph spec {spec!r}: expected e.g. 'torus:4,6' ({error})"
        ) from error


#: A graph identity — ``(kind value, shape)`` — and the request grouping key.
GraphSpec = Tuple[str, Tuple[int, ...]]
Signature = Tuple[GraphSpec, GraphSpec]


@dataclass(frozen=True)
class ServiceRequest:
    """One validated query of the service.

    Construction validates eagerly — the HTTP layer rejects malformed
    requests with a 400 before they ever reach the coalescer, and a request
    object that exists is guaranteed to convert to a scenario.
    """

    op: str
    guest: str
    host: str
    strategy: str = "paper"
    traffic: str = "neighbor-exchange"
    congestion: bool = False

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ProtocolError(f"unknown op {self.op!r}; expected one of {OPS}")
        if not isinstance(self.congestion, bool):
            raise ProtocolError(
                f"congestion must be a boolean, got {self.congestion!r}"
            )
        for name in ("strategy", "traffic"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ProtocolError(f"{name} must be a string, got {value!r}")
        if self.op == "simulate" and not self.traffic:
            raise ProtocolError("simulate requests need a traffic pattern")
        # Eager parse: surfaces bad specs at request-construction time.
        parse_graph_spec(self.guest)
        parse_graph_spec(self.host)

    @property
    def signature(self) -> Signature:
        """The ``(guest kind+shape, host kind+shape)`` coalescing key."""
        return (parse_graph_spec(self.guest), parse_graph_spec(self.host))

    def scenario(self) -> Scenario:
        """The equivalent survey scenario (the unit the batch layer stacks)."""
        (guest_kind, guest_shape), (host_kind, host_shape) = self.signature
        if self.op == "embed":
            return Scenario(guest_kind, guest_shape, host_kind, host_shape)
        return Scenario(
            guest_kind,
            guest_shape,
            host_kind,
            host_shape,
            strategy=self.strategy,
            traffic=self.traffic,
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "guest": self.guest,
            "host": self.host,
            "strategy": self.strategy,
            "traffic": self.traffic,
            "congestion": self.congestion,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ServiceRequest":
        """Build a request from a decoded JSON object, rejecting stray keys."""
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"request body must be a JSON object, got {type(payload).__name__}"
            )
        known = {field.name for field in fields(cls)}
        stray = sorted(set(payload) - known)
        if stray:
            raise ProtocolError(
                f"unknown request field(s) {stray}; expected {sorted(known)}"
            )
        missing = sorted(
            name for name in ("op", "guest", "host") if name not in payload
        )
        if missing:
            raise ProtocolError(f"missing required field(s) {missing}")
        return cls(**payload)  # type: ignore[arg-type]
