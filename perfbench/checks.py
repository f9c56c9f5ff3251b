"""Correctness checks of the workloads' outputs, run outside the timed window.

* **Digests.**  The measured columns of every record — the columns that
  exist at the commit that defined this benchmark, minus the wall-clock
  ``elapsed_seconds`` — are hashed in order.  Every run of one seed must give
  the same digest, and the default seed's digest is pinned in
  ``pinned.json``.  Columns added later do not enter the digest.
* **Reference cross-check.**  For any seed, a seeded sample of records is
  recomputed one scenario at a time on the reference path
  (``use_context(batch=False)``) and compared column by column.
* **Service.**  Every response to one request is the same record, and a
  seeded sample equals :func:`repro.survey.runner.evaluate_scenario`.
* **Search.**  The optimizer's result is never worse than the best of its
  seed population, and a fixed seed reproduces it.

Each check returns a list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, Iterable, List, Mapping, Sequence

#: The record columns of this benchmark's digests and comparisons.
DIGEST_COLUMNS = (
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
    "error",
    "faults",
    "guest_size",
    "search_objective",
    "search_steps",
    "improved",
)

#: Record statuses that count as failed operations.
FAILED_STATUSES = ("error", "failed")


def row(record) -> List[object]:
    """The digest columns of a record (a ``SurveyRecord`` or its dict form)."""
    if isinstance(record, Mapping):
        return [record.get(column) for column in DIGEST_COLUMNS]
    return [getattr(record, column, None) for column in DIGEST_COLUMNS]


def digest(rows: Iterable[Sequence[object]]) -> str:
    hasher = hashlib.sha256()
    for values in rows:
        hasher.update(json.dumps(list(values), separators=(",", ":")).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def records_digest(records) -> str:
    return digest(row(record) for record in records)


def _differences(label: str, got: Sequence[object], want: Sequence[object]) -> List[str]:
    return [
        f"{label}: {column} is {value!r}, reference {expected!r}"
        for column, value, expected in zip(DIGEST_COLUMNS, got, want)
        if value != expected
    ]


def sample_indices(count: int, size: int, seed: int) -> List[int]:
    """A seeded sample of ``size`` positions out of ``count`` (sorted)."""
    rng = random.Random(f"perfbench:check:{seed}")
    return sorted(rng.sample(range(count), min(size, count)))


def check_survey_records(records, scenario_ids: Sequence[str], sample: Sequence[int]) -> List[str]:
    """Records match the scenarios in order, and the sampled ones match the
    per-scenario reference path."""
    from repro.runtime import use_context
    from repro.survey import SurveyOptions
    from repro.survey.runner import evaluate_scenario  # noqa: TID251 - the reference
    from repro.survey.scenarios import Scenario

    problems = []
    got_ids = [record.scenario_id for record in records]
    if got_ids != list(scenario_ids):
        problems.append(f"record ids differ from the {len(scenario_ids)} input scenarios")
        return problems
    with use_context(batch=False):
        for index in sample:
            reference = evaluate_scenario(
                Scenario.from_id(scenario_ids[index]), SurveyOptions(workers=1)
            )
            problems += _differences(scenario_ids[index], row(records[index]), row(reference))
    return problems


def check_pinned(workload: str, seed: int, observed: str, pinned: Mapping[str, object]) -> List[str]:
    """The default seed's digest must equal the pinned one."""
    if seed != pinned.get("seed") or workload not in pinned.get("digests", {}):
        return []
    expected = pinned["digests"][workload]
    if observed != expected:
        return [f"{workload} digest {observed[:12]} differs from pinned {expected[:12]}"]
    return []


def check_same(label: str, digests: Sequence[str]) -> List[str]:
    """Every run of one seed produced the same output."""
    if len(set(digests)) > 1:
        return [f"{label}: {len(set(digests))} different outputs over {len(digests)} runs"]
    return []


def check_service_responses(
    responses: Mapping[str, List[Dict]], requests: Mapping[str, Dict], sample: Sequence[str]
) -> List[str]:
    """``responses``: request key -> every record dict answered for it."""
    from repro.service.protocol import ServiceRequest
    from repro.survey import SurveyOptions
    from repro.survey.runner import evaluate_scenario  # noqa: TID251 - the reference

    problems = []
    for key, records in responses.items():
        if len({json.dumps(row(record)) for record in records}) > 1:
            problems.append(f"{key}: the service answered one request differently")
    for key in sample:
        request = ServiceRequest.from_dict(dict(requests[key]))
        reference = evaluate_scenario(
            request.scenario(), SurveyOptions(workers=1, with_congestion=request.congestion)
        )
        problems += _differences(key, row(responses[key][0]), row(reference))
    return problems


def responses_digest(responses: Mapping[str, List[Dict]]) -> str:
    return digest([key] + row(responses[key][0]) for key in sorted(responses))


def check_optimize(summaries: Sequence[Dict], best_seed_objective: int) -> List[str]:
    """Runs agree (fixed seed reproduces) and none is worse than its seeds."""
    problems = check_same("optimize", [json.dumps(s, sort_keys=True) for s in summaries])
    for summary in summaries:
        if summary["objective"] > best_seed_objective:
            problems.append(
                f"optimize objective {summary['objective']} is worse than the "
                f"best seed's {best_seed_objective}"
            )
    return problems


def best_seed_objective(inputs: Mapping[str, object]) -> int:
    """The best objective of the search's seed population (a zero-budget
    search scores exactly the seeds and returns their best)."""
    import repro.api as api

    return api.optimize(
        inputs["guest"],
        inputs["host"],
        budget=0,
        population=inputs["population"],
        seed=inputs["seed"],
    ).objective
