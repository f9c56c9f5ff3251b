"""Result store for embedding surveys: records, tables, JSON/CSV persistence.

A :class:`SurveyRecord` is one measured guest/host pair, flat enough to be a
CSV row and loss-free as JSON.  A :class:`RecordTable` holds many of them as
columns, one list per entry of :data:`FIELDS`: the survey evaluators fill a
table per shard, the runner concatenates the shards' tables, and the writers
encode it column by column, so a :class:`SurveyRecord` is built only when a
caller indexes or iterates a table.  The two formats round-trip through
:func:`write_records` / :func:`read_records` (dispatched on file extension);
:func:`merge_shards` combines the per-worker shard files written by the
parallel runner into one deterministic record list.
"""

from __future__ import annotations

import collections.abc
import csv
import itertools
import json
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..utils.atomicio import atomic_write

__all__ = [
    "SurveyRecord",
    "RecordTable",
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


#: A record's cells in :data:`FIELDS` order, which is also the order of the
#: dataclass fields, so ``SurveyRecord(*_ROW(record))`` rebuilds a record.
_ROW = operator.attrgetter(*FIELDS)


class RecordTable(collections.abc.Sequence):
    """Survey records as columns: one list of cells per entry of :data:`FIELDS`.

    A table is what a shard evaluates into and what the writers read: the
    evaluators fill a :meth:`blank` table row by row through the column
    builders of :mod:`repro.survey.runner`, :meth:`concat` joins the shards'
    tables in shard order, and :func:`write_json` / :func:`write_csv` encode
    it column by column.  A :class:`SurveyRecord` is built only when a caller
    asks for one: an integer index (negative included) returns a record, a
    slice a ``list`` of records, and iteration yields records.  A table
    equals any sequence of equal records, in either order of the ``==``, and
    it pickles as its columns, which is what a pool worker ships.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Mapping[str, List[object]]):
        #: Column name -> one cell per row, in :data:`FIELDS` order.
        self.columns: Dict[str, List[object]] = {name: columns[name] for name in FIELDS}
        if len({len(column) for column in self.columns.values()}) > 1:
            raise ValueError("every column of a RecordTable needs one cell per row")

    @classmethod
    def blank(cls, rows: int) -> "RecordTable":
        """``rows`` rows whose every cell is ``None``, for an evaluator to fill."""
        return cls({name: [None] * rows for name in FIELDS})

    @classmethod
    def from_records(cls, records: Iterable[SurveyRecord]) -> "RecordTable":
        """The table of ``records``; a table is returned as it is."""
        if isinstance(records, RecordTable):
            return records
        rows = [_ROW(record) for record in records]
        if not rows:
            return cls.blank(0)
        return cls(dict(zip(FIELDS, map(list, zip(*rows)))))

    @classmethod
    def concat(cls, tables: Iterable["RecordTable"]) -> "RecordTable":
        """One table of every row of ``tables``, in their order."""
        tables = list(tables)
        chain = itertools.chain.from_iterable
        return cls(
            {
                name: list(chain(table.columns[name] for table in tables))
                for name in FIELDS
            }
        )

    def put(self, row: int, record: SurveyRecord) -> None:
        """Overwrite every cell of ``row`` with the fields of ``record``."""
        for column, value in zip(self.columns.values(), _ROW(record)):
            column[row] = value

    def clear(self, row: int) -> None:
        """Reset every cell of ``row`` to ``None``."""
        for column in self.columns.values():
            column[row] = None

    def __len__(self) -> int:
        return len(self.columns["scenario_id"])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[row] for row in range(len(self))[index]]
        return SurveyRecord(*[column[index] for column in self.columns.values()])

    def __iter__(self) -> Iterator[SurveyRecord]:
        return itertools.starmap(SurveyRecord, zip(*self.columns.values()))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RecordTable):
            return self.columns == other.columns
        if isinstance(other, collections.abc.Sequence) and not isinstance(
            other, (str, bytes)
        ):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __reduce__(self):
        return RecordTable, (self.columns,)

    def __repr__(self) -> str:
        return f"RecordTable({len(self)} records)"


#: Rows per chunk of a write: the writers hold one chunk's cells and text at
#: a time, never the whole document (a whole perfbench ``sweep`` document in
#: memory raised its peak RSS by a fifth).
_CHUNK_ROWS = 64

#: Cell texts one column keeps across chunks; a column of mostly distinct
#: values starts its memo over when it fills.
_CELL_MEMO = 256


class _CellTexts(dict):
    """One column's cell texts, each encoded once per distinct ``(type, value)``.

    The type is part of the key because ``1``, ``1.0`` and ``True`` are
    equal dict keys that encode differently.  A float zero is never kept:
    ``0.0 == -0.0`` too, and the two print differently.
    """

    __slots__ = ("encode",)

    def __init__(self, encode: Callable[[object], str]):
        super().__init__()
        self.encode = encode

    def __missing__(self, key: Tuple[type, object]) -> str:
        value = key[1]
        text = self.encode(value)
        if value or not isinstance(value, float):
            if len(self) >= _CELL_MEMO:
                self.clear()
            self[key] = text
        return text


def _chunks(
    table: RecordTable, encoders: Sequence[Callable[[object], str]]
) -> Iterator[Iterator[Tuple[str, ...]]]:
    """The table's rows as tuples of cell texts, one iterator per chunk;
    ``encoders`` holds one encoder per column, in :data:`FIELDS` order."""
    memos = [_CellTexts(encode) for encode in encoders]
    columns = list(table.columns.values())
    for start in range(0, len(table), _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        yield zip(
            *[
                [texts[(value.__class__, value)] for value in column[start:stop]]
                for texts, column in zip(memos, columns)
            ]
        )


_JSON_VALUE = json.JSONEncoder().encode


def _json_member(name: str) -> Callable[[object], str]:
    """Encodes one value as the ``"name": value`` member of a record object."""
    prefix = f"{json.dumps(name)}: "
    return lambda value: prefix + _JSON_VALUE(value)


#: One member encoder per column; the C encoder writes each value as
#: ``json.dump`` does (floats by ``float.__repr__``, ``NaN``/``Infinity``).
_JSON_MEMBERS = tuple(_json_member(name) for name in FIELDS)

#: How ``json.dump(..., indent=1)`` lays out the members of a record object
#: at its depth in the document, and the records of the list.
_MEMBER_SEPARATOR = ",\n   "
_RECORD_SEPARATOR = "\n  },\n  {\n   "


def write_json(records: Sequence[SurveyRecord], path: PathLike) -> Path:
    """Write records as a JSON document (list of objects plus a count header).

    ``records`` is a :class:`RecordTable` or any sequence of records (which
    is converted to one first).  The bytes are exactly
    ``json.dump(payload, indent=1)`` plus a newline, but written from the
    columns: each column's cells are encoded once per distinct value, and
    the records are joined and written a chunk of rows at a time, so the
    document is never held in memory.  The write is atomic (temp file +
    ``os.replace``): a kill mid-write leaves the previous document intact
    instead of a torn shard that silently fails the resume check and costs
    a full recompute.
    """
    path = Path(path)
    table = RecordTable.from_records(records)
    with atomic_write(path) as handle:
        handle.write(f'{{\n "format": "repro-survey/1",\n "count": {len(table)},\n')
        if len(table):
            separator = ' "records": [\n  {\n   '
            for rows in _chunks(table, _JSON_MEMBERS):
                handle.write(separator)
                handle.write(_RECORD_SEPARATOR.join(map(_MEMBER_SEPARATOR.join, rows)))
                separator = _RECORD_SEPARATOR
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


def _csv_text(value: object) -> str:
    """A cell as ``csv.DictWriter`` writes :func:`_csv_cell` of it."""
    return str(_csv_cell(value))


def write_csv(records: Sequence[SurveyRecord], path: PathLike) -> Path:
    """Write records as a CSV table with the :data:`FIELDS` columns.

    ``records`` is a :class:`RecordTable` or any sequence of records.  The
    bytes are those of a ``csv.DictWriter`` over the records' dicts, written
    from the columns a chunk of rows at a time, like :func:`write_json`.
    Atomic like :func:`write_json`: the table appears all at once or not at
    all, never truncated mid-row.
    """
    path = Path(path)
    table = RecordTable.from_records(records)
    with atomic_write(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(FIELDS)
        for rows in _chunks(table, (_csv_text,) * len(FIELDS)):
            writer.writerows(rows)
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
