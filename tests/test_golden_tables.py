"""Golden regression tests: the paper-table dilation values, pinned as JSON.

The experiment row generators behind the ``bench_table_*.py`` benchmarks are
re-run against fixtures under ``tests/golden/`` and must reproduce them
*exactly* — every guest/host pair, strategy label, measured dilation and
predicted value.  Any change to the construction kernels, the dispatcher or
the cost measures that shifts a single table cell fails here.

Regenerate the fixtures (only after deliberately changing the tables) with::

    PYTHONPATH=src python -m tests.test_golden_tables --regenerate
"""

import json
import sys
from pathlib import Path

import pytest

from repro.experiments.basic_tables import BASIC_SWEEP, line_rows, ring_rows
from repro.experiments.increasing_tables import INCREASING_SWEEP, increasing_rows
from repro.experiments.lowering_tables import (
    GENERAL_SWEEP,
    SIMPLE_SWEEP,
    general_rows,
    hypercube_rows,
    simple_rows,
)
from repro.experiments.simulation_tables import (
    SCENARIOS,
    collective_rows,
    mapping_rows,
    negative_control_rows,
)
from repro.experiments.square_tables import (
    square_increasing_rows,
    square_lowering_rows,
)
from repro.experiments.optima_tables import search_rows
from repro.experiments.workload_tables import (
    expansion_rows,
    fault_rows,
    hotspot_rows,
)
from repro.runtime import use_context

GOLDEN_DIR = Path(__file__).parent / "golden"


def _sim_map_rows():
    """The SIM-MAP table: deterministic simulated makespans per strategy.

    Pins the whole array-native netsim pipeline end to end — placement,
    batched routing, link loads and the event loop — since a single changed
    hop or tie-break shifts a makespan cell.
    """
    return mapping_rows(SCENARIOS[:3]) + negative_control_rows() + collective_rows()


#: Fixture name -> zero-argument generator of the table rows it pins.
TABLES = {
    "tab_basic": lambda: line_rows(BASIC_SWEEP) + ring_rows(BASIC_SWEEP),
    "tab_increasing": lambda: increasing_rows(INCREASING_SWEEP),
    "tab_lowering_simple": lambda: simple_rows(SIMPLE_SWEEP) + hypercube_rows(),
    "tab_lowering_general": lambda: general_rows(GENERAL_SWEEP),
    "tab_square_lowering": lambda: square_lowering_rows(),
    "tab_square_increasing": lambda: square_increasing_rows(),
    "tab_sim_map": _sim_map_rows,
    "tab_expansion": expansion_rows,
    "tab_faults": fault_rows,
    "tab_hotspot": hotspot_rows,
    "tab_optima": search_rows,
}


#: Simulator tables also replayed on the loop backend's heap-loop oracle.
LOOP_REPLAYED = ("tab_sim_map", "tab_faults", "tab_hotspot")


def fixture_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def load_fixture(name: str):
    with fixture_path(name).open("r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize(
    "name, backend",
    [pytest.param(name, "auto", id=name) for name in sorted(TABLES)]
    + [pytest.param(name, "loop", id=f"{name}-loop") for name in LOOP_REPLAYED],
)
def test_table_rows_match_golden_fixture(name, backend):
    fixture = load_fixture(name)
    with use_context(backend=backend):
        recomputed = TABLES[name]()
    # Round-trip through JSON so recomputed rows compare on the same types
    # (tuples -> lists etc.) as the stored fixture.
    recomputed = json.loads(json.dumps(recomputed))
    assert len(recomputed) == fixture["count"]
    for index, (got, want) in enumerate(zip(recomputed, fixture["rows"])):
        assert got == want, f"{name} row {index} drifted: {got!r} != {want!r}"


def test_golden_fixtures_pin_every_dilation_claim():
    """Every measured dilation in the fixtures respects its paper prediction
    (exact for most strategies, an upper bound for the torus->mesh and chain
    cases) — the tables' core claim, re-asserted on the pinned values
    themselves so fixture corruption cannot hide it."""
    checked = 0
    for name in sorted(TABLES):
        for row in load_fixture(name)["rows"]:
            if "paper" in row and isinstance(row["paper"], int):
                assert isinstance(row["dilation"], int)
                assert 1 <= row["dilation"] <= row["paper"], (name, row)
                checked += 1
    assert checked > 150  # the fixtures really do pin table-scale sweeps


def regenerate() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, generate in sorted(TABLES.items()):
        rows = json.loads(json.dumps(generate()))
        payload = {"table": name, "count": len(rows), "rows": rows}
        with fixture_path(name).open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
        print(f"wrote {fixture_path(name)} ({len(rows)} rows)")


if __name__ == "__main__":  # pragma: no cover - maintenance entry point
    if "--regenerate" not in sys.argv:
        raise SystemExit("pass --regenerate to rewrite the golden fixtures")
    regenerate()
