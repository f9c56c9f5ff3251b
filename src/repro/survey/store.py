"""Result store for embedding surveys: records, JSON/CSV persistence, shards.

A :class:`SurveyRecord` is one measured guest/host pair, flat enough to be a
CSV row and loss-free as JSON.  The two formats round-trip through
:func:`write_records` / :func:`read_records` (dispatched on file extension);
:func:`merge_shards` combines the per-worker shard files written by the
parallel runner into one deterministic record list.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..utils.atomicio import atomic_write

__all__ = [
    "SurveyRecord",
    "write_json",
    "read_json",
    "write_csv",
    "read_csv",
    "write_records",
    "read_records",
    "merge_shards",
]

PathLike = Union[str, Path]

#: Column order of the CSV format (also the canonical JSON key order).  The
#: ``traffic`` .. ``makespan`` block is only populated by simulation
#: scenarios; embedding scenarios leave it ``None`` (empty CSV cells).
FIELDS = (
    "scenario_id",
    "guest",
    "host",
    "nodes",
    "guest_edges",
    "status",
    "strategy",
    "predicted_dilation",
    "dilation",
    "average_dilation",
    "congestion",
    "matches_prediction",
    "traffic",
    "messages",
    "max_hops",
    "max_link_load",
    "estimated_time",
    "makespan",
    "elapsed_seconds",
    "error",
    # Appended by the fault/expansion axes; records written before these
    # columns existed load with them as None (`from_dict` uses .get()).
    "faults",
    "guest_size",
    # Appended by the optimizer suite: the encoded search objective, the
    # generations run, and whether search beat the seeded construction.
    "search_objective",
    "search_steps",
    "improved",
)


@dataclass(frozen=True)
class SurveyRecord:
    """One measured guest/host pair of a survey.

    ``status`` is ``"ok"`` for measured embeddings, ``"unsupported"`` when
    the paper offers no construction for the pair (the dispatcher raised
    :class:`~repro.exceptions.UnsupportedEmbeddingError`) and ``"error"``
    for unexpected failures; the cost columns are ``None`` in the latter two
    cases and ``error`` carries the message.

    Simulation scenarios additionally fill the ``traffic`` .. ``makespan``
    block (pattern name, message count, per-phase hop/link statistics and
    the simulated completion time); embedding scenarios leave it ``None``.
    """

    scenario_id: str
    guest: str
    host: str
    nodes: int
    guest_edges: int
    status: str
    strategy: Optional[str] = None
    predicted_dilation: Optional[int] = None
    dilation: Optional[int] = None
    average_dilation: Optional[float] = None
    congestion: Optional[int] = None
    matches_prediction: Optional[bool] = None
    traffic: Optional[str] = None
    messages: Optional[int] = None
    max_hops: Optional[int] = None
    max_link_load: Optional[int] = None
    estimated_time: Optional[float] = None
    makespan: Optional[float] = None
    elapsed_seconds: float = 0.0
    error: Optional[str] = None
    faults: Optional[str] = None
    guest_size: Optional[int] = None
    search_objective: Optional[int] = None
    search_steps: Optional[int] = None
    improved: Optional[bool] = None

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form in canonical key order (JSON object / CSV row).

        Every field is an immutable scalar, so reading the attributes directly
        gives what ``dataclasses.asdict`` would, without its deep copy.
        """
        return {key: getattr(self, key) for key in FIELDS}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SurveyRecord":
        return cls(**{key: data.get(key) for key in FIELDS})  # type: ignore[arg-type]


#: Encodes one record object as ``json.dump(..., indent=1)`` lays it out at
#: its depth in the document, braces aside: the C encoder writes the member
#: separator, newline and indent itself, so no encoded text is rewritten.
_RECORD_ENCODER = json.JSONEncoder(separators=(",\n   ", ": "))


def write_json(records: Sequence[SurveyRecord], path: PathLike) -> Path:
    """Write records as a JSON document (list of objects plus a count header).

    The bytes are exactly ``json.dump(payload, indent=1)`` plus a newline,
    but streamed: the header, record separators and footer are written by
    hand and each record goes through the C encoder on its own, so the
    document is never held in memory (``json.dump`` with an indent runs the
    pure-Python encoder).  The write is atomic (temp file + ``os.replace``):
    a kill mid-write leaves the previous document intact instead of a torn
    shard that silently fails the resume check and costs a full recompute.
    """
    path = Path(path)
    encode = _RECORD_ENCODER.encode
    with atomic_write(path) as handle:
        handle.write(f'{{\n "format": "repro-survey/1",\n "count": {len(records)},\n')
        if records:
            separator = ' "records": [\n  {\n   '
            for record in records:
                handle.write(separator)
                handle.write(encode(record.as_dict())[1:-1])
                separator = "\n  },\n  {\n   "
            handle.write("\n  }\n ]\n}\n")
        else:
            handle.write(' "records": []\n}\n')
    return path


def read_json(path: PathLike) -> List[SurveyRecord]:
    """Read records written by :func:`write_json`."""
    with Path(path).open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    rows = payload["records"] if isinstance(payload, dict) else payload
    return [SurveyRecord.from_dict(row) for row in rows]


def _csv_cell(value: object) -> object:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def _parse_bool_cell(text: str) -> bool:
    """Parse a CSV boolean cell case-insensitively.

    The writer emits lowercase ``true``/``false``, but legacy files and
    hand-edited spreadsheets carry ``True``/``FALSE`` etc.; treating anything
    but exactly ``"true"`` as ``False`` silently flipped those records.
    Unrecognized text raises instead of guessing.
    """
    lowered = text.strip().lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    raise ValueError(f"unrecognized boolean cell {text!r}; expected true/false")


_CSV_PARSERS = {
    "nodes": int,
    "guest_edges": int,
    "guest_size": int,
    "predicted_dilation": int,
    "dilation": int,
    "congestion": int,
    "messages": int,
    "max_hops": int,
    "max_link_load": int,
    "average_dilation": float,
    "estimated_time": float,
    "makespan": float,
    "elapsed_seconds": float,
    "matches_prediction": _parse_bool_cell,
    "search_objective": int,
    "search_steps": int,
    "improved": _parse_bool_cell,
}


def write_csv(records: Sequence[SurveyRecord], path: PathLike) -> Path:
    """Write records as a CSV table with the :data:`FIELDS` columns.

    Atomic like :func:`write_json`: the table appears all at once or not at
    all, never truncated mid-row.
    """
    path = Path(path)
    with atomic_write(path, newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(FIELDS))
        writer.writeheader()
        for record in records:
            writer.writerow(
                {key: _csv_cell(value) for key, value in record.as_dict().items()}
            )
    return path


def read_csv(path: PathLike) -> List[SurveyRecord]:
    """Read records written by :func:`write_csv` (inverse, None <-> empty cell)."""
    records: List[SurveyRecord] = []
    with Path(path).open("r", encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            data: Dict[str, object] = {}
            for key in FIELDS:
                text = row.get(key)
                if text is None or text == "":
                    data[key] = None
                elif key in _CSV_PARSERS:
                    data[key] = _CSV_PARSERS[key](text)
                else:
                    data[key] = text
            if data["elapsed_seconds"] is None:
                data["elapsed_seconds"] = 0.0
            records.append(SurveyRecord.from_dict(data))
    return records


def write_records(records: Sequence[SurveyRecord], path: PathLike) -> Path:
    """Write records in the format implied by the file extension (.json/.csv)."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return write_csv(records, path)
    return write_json(records, path)


def read_records(path: PathLike) -> List[SurveyRecord]:
    """Read records in the format implied by the file extension (.json/.csv)."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return read_csv(path)
    return read_json(path)


def merge_shards(paths: Iterable[PathLike]) -> List[SurveyRecord]:
    """Merge per-worker shard files into one deterministic record list.

    Records are de-duplicated by ``scenario_id`` (last shard wins, which only
    matters when a shard was retried) and sorted by id, so the merge result
    is independent of worker scheduling order.
    """
    by_id: Dict[str, SurveyRecord] = {}
    for path in paths:
        for record in read_records(path):
            by_id[record.scenario_id] = record
    return [by_id[key] for key in sorted(by_id)]
