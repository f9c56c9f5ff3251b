"""Differential tests for the batched survey evaluation subsystem.

Two contracts are pinned here:

* **Records** — the batched shard path (`repro.survey.batch`) must produce
  records *byte-identical* to the per-scenario reference path, across
  suites, options and backends (``elapsed_seconds`` timings aside), and must
  reproduce the committed SIM-MAP golden table.
* **Simulator** — the round-based vectorized event loop must equal the loop
  backend's heap loop bit for bit: makespans, per-message completion times
  and statistics, including with dyadic message sizes (where float ties are
  exact and tie-breaking order is actually observable), on weighted links
  whose rounds mix ready times, on routes detoured around dead links, and
  whether phases run one at a time or merged into one loop.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.embedding import Embedding
from repro.exceptions import InvalidEmbeddingError, SimulationError
from repro.graphs.base import Mesh, Torus
from repro.graphs.faults import FaultSpec
from repro.netsim import (
    CostModel,
    HostNetwork,
    LinkWeightSpec,
    Message,
    TrafficPattern,
    simulate_endpoint_phases,
    simulate_phase,
)
from repro.numbering.arrays import compact_index_dtype
from repro.runtime import ExecutionContext, use_context
from repro.runtime.registry import build_strategy
from repro.survey import (
    Scenario,
    SurveyOptions,
    all_pairs,
    evaluate_shard_batched,
    read_records,
    run_survey,
    scenarios_for_suite,
)
from repro.survey.runner import evaluate_scenario

from .strategies import same_size_shape_pairs


def strip(record):
    """A record's canonical dict with the timing column removed."""
    return {**record.as_dict(), "elapsed_seconds": None}


def assert_identical_records(batched, reference):
    assert [strip(r) for r in batched] == [strip(r) for r in reference]


def run_batched(scenarios, options):
    with use_context(batch=True):
        return run_survey(scenarios, options)


def run_reference(scenarios, options):
    with use_context(batch=False):
        return run_survey(scenarios, options)


class TestBatchedRecordIdentity:
    def test_smoke_suite(self):
        scenarios = scenarios_for_suite("smoke")
        options = SurveyOptions(workers=1)
        assert_identical_records(
            run_batched(scenarios, options).records,
            run_reference(scenarios, options).records,
        )

    def test_simulation_suite(self):
        scenarios = scenarios_for_suite("simulation", max_nodes=48)
        options = SurveyOptions(workers=1)
        batched = run_batched(scenarios, options).records
        assert_identical_records(batched, run_reference(scenarios, options).records)
        assert all(r.status == "ok" and r.makespan is not None for r in batched)

    def test_exhaustive_pairs_with_congestion(self):
        scenarios = all_pairs(16)
        options = SurveyOptions(workers=1, with_congestion=True)
        batched = run_batched(scenarios, options).records
        assert_identical_records(batched, run_reference(scenarios, options).records)
        assert any(r.status == "unsupported" for r in batched)  # covers that path
        assert all(r.congestion is not None for r in batched if r.status == "ok")

    def test_batched_matches_loop_backend_reference(self):
        # The strongest form of the contract: stacked kernels vs the
        # pure-Python per-edge/per-message loops.
        scenarios = scenarios_for_suite("smoke") + scenarios_for_suite(
            "simulation", max_nodes=24
        )
        options = SurveyOptions(workers=1, with_congestion=True)
        with use_context(backend="array", batch=True):
            batched = run_survey(scenarios, options).records
        with use_context(backend="loop"):
            loop = run_survey(scenarios, options).records
        assert_identical_records(batched, loop)

    def test_parallel_batched_matches_sequential_reference(self):
        scenarios = all_pairs(12)
        with use_context(batch=True):
            parallel = run_survey(scenarios, SurveyOptions(workers=2, shard_size=4))
        assert_identical_records(
            parallel.records,
            run_reference(scenarios, SurveyOptions(workers=1)).records,
        )

    def test_error_and_unsupported_records_identical(self):
        scenarios = [
            Scenario("torus", (2, 3, 5), "torus", (5, 6)),  # may be unsupported
            Scenario(
                "torus", (4, 6), "mesh", (2, 2, 2, 3), strategy="psychic", traffic="transpose"
            ),  # unknown strategy -> error record
            Scenario(
                "torus", (4, 6), "mesh", (2, 2, 2, 3), strategy="paper", traffic="warp"
            ),  # unknown traffic -> error record
        ]
        options = SurveyOptions(workers=1)
        batched = evaluate_shard_batched(scenarios, options)
        reference = [evaluate_scenario(s, options) for s in scenarios]
        assert_identical_records(batched, reference)
        assert batched[1].status == "error" and "KeyError" in batched[1].error
        assert batched[2].status == "error" and "SimulationError" in batched[2].error

    @pytest.mark.parametrize("with_congestion", [False, True])
    def test_failing_group_alone_takes_the_reference_path(
        self, monkeypatch, with_congestion
    ):
        # The shard-wide measurement raises whenever the poisoned host is in
        # it; the group-by-group retry must hand exactly that signature's
        # scenarios to the reference path and measure the rest batched.
        from repro.survey import batch, runner

        poisoned = Mesh((2, 2, 2, 3))
        real_summary = batch.stacked_dilation_summary

        def summary(hosts, edge_us, edge_vs, images):
            if poisoned in hosts:
                raise RuntimeError("stacked kernel declined")
            return real_summary(hosts, edge_us, edge_vs, images)

        referenced = []
        real_reference = runner.evaluate_scenario

        def reference(scenario, options):
            referenced.append(scenario.scenario_id)
            return real_reference(scenario, options)

        monkeypatch.setattr(batch, "stacked_dilation_summary", summary)
        monkeypatch.setattr(runner, "evaluate_scenario", reference)
        pair = ("torus", (4, 6), "mesh", (2, 2, 2, 3))
        scenarios = [
            Scenario(*pair),
            Scenario("mesh", (4, 6), "torus", (6, 4)),
            Scenario("mesh", (6, 4), "mesh", (2, 2, 2, 3)),
            Scenario("torus", (3, 4), "mesh", (12,)),
            Scenario(*pair, strategy="paper", traffic="transpose"),
        ]
        options = SurveyOptions(workers=1, with_congestion=with_congestion)
        batched = evaluate_shard_batched(scenarios, options)
        assert sorted(referenced) == sorted(
            scenario.scenario_id
            for scenario in scenarios
            if scenario.host_shape == poisoned.shape
        )
        monkeypatch.undo()
        assert_identical_records(
            batched, [evaluate_scenario(s, options) for s in scenarios]
        )

    @settings(max_examples=25, deadline=None)
    @given(pairs=st.lists(same_size_shape_pairs(), min_size=1, max_size=6))
    def test_hypothesis_shape_pairs_identical(self, pairs):
        scenarios = []
        for guest_shape, host_shape in pairs:
            for guest_kind, host_kind in (("torus", "mesh"), ("mesh", "torus")):
                scenarios.append(Scenario(guest_kind, guest_shape, host_kind, host_shape))
        options = SurveyOptions(workers=1, with_congestion=True)
        assert_identical_records(
            evaluate_shard_batched(scenarios, options),
            [evaluate_scenario(s, options) for s in scenarios],
        )

    def test_shard_resume_accepts_batched_shards(self, tmp_path):
        scenarios = all_pairs(12)[:6]
        options = SurveyOptions(workers=1, shard_size=3, shard_dir=str(tmp_path))
        first = run_batched(scenarios, options)
        assert first.reused_shard_indices == []
        # A per-scenario rerun resumes from the batched shard files verbatim.
        rerun = run_reference(scenarios, options)
        assert rerun.reused_shard_indices == [0, 1]
        assert_identical_records(rerun.records, first.records)


class TestSimMapGolden:
    def test_batched_records_reproduce_sim_map_golden(self):
        fixture = json.loads(
            (Path(__file__).parent / "golden" / "tab_sim_map.json").read_text()
        )
        # The golden's mapping block: neighbour-exchange phases over the
        # SIM-MAP (task graph, network) pairs, one row per strategy.
        rows = [row for row in fixture["rows"] if "makespan" in row][:12]
        pairs = [
            ("torus", (8, 8), "mesh", (4, 4, 4)),
            ("mesh", (8, 8), "torus", (4, 4, 4)),
            ("torus", (4, 4, 4), "mesh", (8, 8)),
        ]
        strategies = ("paper", "lexicographic", "bfs", "random")
        scenarios = [
            Scenario(gk, gs, hk, hs, strategy=name, traffic="neighbor-exchange")
            for gk, gs, hk, hs in pairs
            for name in strategies
        ]
        report = run_batched(scenarios, SurveyOptions(workers=1))
        assert len(report.records) == len(rows)
        for record, row in zip(report.records, rows):
            assert record.status == "ok"
            assert record.strategy == row["strategy"]
            assert record.dilation == row["dilation"]
            assert record.max_hops == row["max hops"]
            assert record.max_link_load == row["max link msgs"]
            assert round(record.makespan, 1) == row["makespan"]


def _placed_phase(draw):
    guest, host = draw(
        st.sampled_from(
            [
                (Torus((3, 4)), Mesh((2, 2, 3))),
                (Mesh((2, 2, 3)), Torus((3, 4))),
                (Torus((3, 4)), Mesh((12,))),
                (Torus((2, 2, 2)), Mesh((4, 2))),
                (Mesh((4, 4)), Torus((2, 2, 2, 2))),
            ]
        )
    )
    embedding = build_strategy(
        draw(st.sampled_from(["paper", "lexicographic", "random"])), guest, host
    )
    nodes = list(guest.nodes())
    dyadic = st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0])
    messages = draw(
        st.lists(
            st.builds(
                Message,
                source=st.sampled_from(nodes),
                destination=st.sampled_from(nodes),
                size=dyadic,
            ),
            min_size=0,
            max_size=24,
        )
    )
    model = CostModel(
        alpha=draw(st.sampled_from([0.0, 0.5, 1.0])),
        bandwidth=draw(st.sampled_from([1.0, 2.0])),
    )
    network = HostNetwork(host, model)
    traffic = TrafficPattern(name="hypothesis", messages=tuple(messages))
    return network, embedding, traffic


placed_phases = st.composite(_placed_phase)


#: Same-size pairs that put extent-2 mesh lines under the traffic, whose
#: backward hops both simulators must price (and detour) by the same link id.
HETEROGENEOUS_PAIRS = [
    (Torus((2, 3)), Mesh((2, 3))),
    (Torus((3, 4)), Mesh((2, 2, 3))),
    (Mesh((4, 3)), Mesh((3, 2, 2))),
    (Torus((2, 2, 2)), Mesh((2, 4))),
    (Mesh((3, 4)), Torus((3, 2, 2))),
]


def _non_dyadic_traffic(draw, guest):
    nodes = list(guest.nodes())
    sizes = st.sampled_from([0.3, 0.7, 1.1, 1.3])
    messages = draw(
        st.lists(
            st.builds(
                Message,
                source=st.sampled_from(nodes),
                destination=st.sampled_from(nodes),
                size=sizes,
            ),
            min_size=8,
            max_size=40,
        )
    )
    return TrafficPattern(name="weighted", messages=tuple(messages))


def _link_weights(draw, kinds):
    kind = draw(st.sampled_from(kinds))
    if kind is None:
        return None
    return LinkWeightSpec(
        kind, draw(st.sampled_from([0.1, 0.3])), draw(st.integers(0, 99))
    )


def _cost_model(draw):
    return CostModel(alpha=draw(st.sampled_from([2.5, 4.0])), bandwidth=1.0)


@st.composite
def weighted_phases(draw):
    """A placed phase on heterogeneous links with non-dyadic message sizes.

    Per-link weights and sizes without exact binary fractions give every
    hop its own occupancy, and a per-hop latency large against their
    spread keeps the batch window wide, so rounds often queue requests of
    different ready times on one link.
    """
    guest, host = draw(st.sampled_from(HETEROGENEOUS_PAIRS))
    embedding = build_strategy(
        draw(st.sampled_from(["paper", "lexicographic", "random"])), guest, host
    )
    traffic = _non_dyadic_traffic(draw, guest)
    weights = _link_weights(draw, ["random", "dimension"])
    network = HostNetwork(host, _cost_model(draw), link_weights=weights)
    return network, embedding, traffic


@st.composite
def faulted_phase_lists(draw):
    """1-4 ``(network, embedding, traffic, faults)`` phases for one merged call.

    Each phase has ``random``, ``dimension`` or no link weights and one to
    three dead links (``FaultSpec`` ``n0l{1..3}s{seed}``) or none.  Phases
    draw their network from a pool of up to three, so some share one
    :class:`HostNetwork` (and one merged route expansion) and some do not.
    """
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        guest, host = draw(st.sampled_from(HETEROGENEOUS_PAIRS))
        weights = _link_weights(draw, ["random", "dimension", None])
        pool.append((guest, HostNetwork(host, _cost_model(draw), link_weights=weights)))
    phases = []
    for _ in range(draw(st.integers(1, 4))):
        guest, network = draw(st.sampled_from(pool))
        host = network.topology
        embedding = build_strategy(
            draw(st.sampled_from(["paper", "lexicographic", "random"])), guest, host
        )
        dead_links = draw(st.integers(0, 3))
        faults = (
            FaultSpec(num_links=dead_links, seed=draw(st.integers(0, 999))).apply(host)
            if dead_links
            else None
        )
        phases.append((network, embedding, _non_dyadic_traffic(draw, guest), faults))
    return phases


def endpoint_phases(phases):
    """Fault-free ``simulate_endpoint_phases`` entries for placed phases."""
    return [
        (network, embedding, traffic.endpoint_rank_arrays(embedding.guest.shape), None)
        for network, embedding, traffic in phases
    ]


class TestRoundSimulatorEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(placed_phases())
    def test_rounds_equal_heap_and_loop_with_dyadic_sizes(self, phase):
        network, embedding, traffic = phase
        with use_context(backend="array"):
            rounds = simulate_phase(network, embedding, traffic)
        with use_context(backend="loop"):
            loop = simulate_phase(network, embedding, traffic)
        assert rounds.makespan == loop.makespan
        assert rounds.per_message_completion == loop.per_message_completion
        assert rounds.statistics == loop.statistics

    @settings(max_examples=20, deadline=None)
    @given(st.lists(placed_phases(), min_size=1, max_size=4))
    def test_merged_phases_equal_individual_phases(self, phases):
        with use_context(backend="array"):
            merged = simulate_endpoint_phases(endpoint_phases(phases))
            individual = [simulate_phase(*phase) for phase in phases]
        assert [result.makespan for result in merged] == [
            result.makespan for result in individual
        ]
        assert [result.per_message_completion for result in merged] == [
            result.per_message_completion for result in individual
        ]
        assert [result.statistics for result in merged] == [
            result.statistics for result in individual
        ]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(weighted_phases(), min_size=1, max_size=4))
    def test_merged_weighted_phases_equal_the_loop_oracle(self, phases):
        with use_context(backend="array"):
            merged = simulate_endpoint_phases(endpoint_phases(phases))
        with use_context(backend="loop"):
            oracle = [simulate_phase(*phase) for phase in phases]
        assert [result.makespan for result in merged] == [
            result.makespan for result in oracle
        ]
        assert [result.per_message_completion for result in merged] == [
            result.per_message_completion for result in oracle
        ]
        assert [result.statistics for result in merged] == [
            result.statistics for result in oracle
        ]

    @settings(max_examples=40, deadline=None)
    @given(faulted_phase_lists())
    def test_merged_faulted_weighted_phases_equal_the_loop_oracle(self, phases):
        entries = [
            (
                network,
                embedding,
                traffic.endpoint_rank_arrays(embedding.guest.shape),
                faults,
            )
            for network, embedding, traffic, faults in phases
        ]
        with use_context(backend="loop"):
            try:
                oracle = [
                    simulate_phase(network, embedding, traffic, faults=faults)
                    for network, embedding, traffic, faults in phases
                ]
            except SimulationError:
                oracle = None
        if oracle is None:
            # The faults cut some message's endpoints apart: the merged
            # call fails as a whole.
            with pytest.raises(SimulationError):
                simulate_endpoint_phases(entries)
            return
        merged = simulate_endpoint_phases(entries)
        assert [result.makespan for result in merged] == [
            result.makespan for result in oracle
        ]
        assert [result.per_message_completion for result in merged] == [
            result.per_message_completion for result in oracle
        ]
        assert [result.statistics for result in merged] == [
            result.statistics for result in oracle
        ]

    def test_empty_and_zero_hop_phases(self):
        guest = host = Torus((2, 2))
        network = HostNetwork(host)
        embedding = Embedding.identity(guest, host)
        node = (0, 0)
        empty = TrafficPattern(name="empty", messages=())
        self_loop = TrafficPattern(name="self", messages=(Message(node, node),))
        with use_context(backend="array"):
            results = simulate_endpoint_phases(
                endpoint_phases(
                    [(network, embedding, empty), (network, embedding, self_loop)]
                )
            )
        assert results[0].makespan == 0.0
        assert results[0].per_message_completion == ()
        assert results[1].makespan == 0.0
        assert results[1].per_message_completion == (0.0,)

    def test_max_events_budget_is_per_phase(self):
        guest, host = Torus((4, 4)), Mesh((2, 2, 2, 2))
        network = HostNetwork(host)
        from repro.netsim import neighbor_exchange_traffic

        traffic = neighbor_exchange_traffic(guest)
        embedding = build_strategy("paper", guest, host)
        with use_context(backend="array"):
            with pytest.raises(SimulationError):
                simulate_phase(network, embedding, traffic, max_events=3)
            with pytest.raises(SimulationError):
                simulate_endpoint_phases(
                    endpoint_phases([(network, embedding, traffic)]), max_events=3
                )
        # A degenerate-window phase (alpha 0, infinite bandwidth collapses
        # the batch window) still terminates and matches the loop reference.
        slow = HostNetwork(host, CostModel(alpha=0.0, bandwidth=float("inf")))
        with use_context(backend="array"):
            array = simulate_phase(slow, embedding, traffic)
        with use_context(backend="loop"):
            loop = simulate_phase(slow, embedding, traffic)
        assert array.makespan == loop.makespan == 0.0
        assert array.per_message_completion == loop.per_message_completion

    def test_max_events_boundary_is_the_phase_hop_count(self):
        # An event is one served hop: a phase completes under a budget of
        # exactly its hop count and fails one below it, whatever the other
        # phases of a merged call hold — on both simulators.  The merged
        # call is the array path; the loop backend runs the phases one by
        # one.
        from repro.netsim import neighbor_exchange_traffic

        guest, host = Torus((4, 4)), Mesh((2, 2, 2, 2))
        network = HostNetwork(host)
        embedding = build_strategy("paper", guest, host)
        full = neighbor_exchange_traffic(guest)
        half = TrafficPattern("half", full.messages[: len(full.messages) // 2])
        phases = [(network, embedding, half), (network, embedding, full)]
        with use_context(backend="loop"):
            h1, h2 = (simulate_phase(*phase).statistics.total_hops for phase in phases)
        assert 0 < h1 < h2
        merged = {
            "array": lambda budget: simulate_endpoint_phases(
                endpoint_phases(phases), max_events=budget
            ),
            "loop": lambda budget: [
                simulate_phase(*phase, max_events=budget) for phase in phases
            ],
        }
        for backend, run in merged.items():
            with use_context(backend=backend):
                run(h2)
                simulate_phase(network, embedding, full, max_events=h2)
                with pytest.raises(SimulationError):
                    run(h2 - 1)
                with pytest.raises(SimulationError):
                    simulate_phase(network, embedding, full, max_events=h2 - 1)


class TestDtypeDownsizing:
    def test_compact_index_dtype_thresholds(self):
        assert compact_index_dtype(0) is np.int32
        assert compact_index_dtype(2**31 - 1) is np.int32
        assert compact_index_dtype(2**31) is np.int64
        with pytest.raises(ValueError):
            compact_index_dtype(-1)

    def test_stacked_images_use_int32_at_survey_scale(self):
        from repro.analysis.metrics import stack_host_index_arrays

        guest, host = Torus((4, 6)), Mesh((2, 2, 2, 3))
        embeddings = [build_strategy(n, guest, host) for n in ("paper", "lexicographic")]
        images = stack_host_index_arrays(embeddings, host)
        assert images.dtype == np.int32
        assert images.shape == (2, host.size)
        for row, embedding in zip(images, embeddings):
            assert (row == embedding.host_index_array()).all()


class TestValidateArraySinglePass:
    def test_validate_runs_one_unique_pass(self, monkeypatch):
        calls = {"count": 0}
        real_unique = np.unique

        def counting_unique(*args, **kwargs):
            calls["count"] += 1
            return real_unique(*args, **kwargs)

        guest, host = Torus((3, 4)), Mesh((3, 4))
        embedding = Embedding.from_index_array(
            guest, host, np.arange(12, dtype=np.int64)
        )
        monkeypatch.setattr(np, "unique", counting_unique)
        embedding.validate()
        assert calls["count"] == 1

    def test_duplicate_images_still_raise_with_offender(self):
        guest, host = Torus((3, 4)), Mesh((3, 4))
        indices = np.arange(12, dtype=np.int64)
        indices[5] = 7
        embedding = Embedding.from_index_array(guest, host, indices)
        with pytest.raises(InvalidEmbeddingError, match="more than once"):
            embedding.validate()


class TestDerivedArrayMemoization:
    def test_edge_index_arrays_cached_per_graph(self):
        graph = Torus((3, 4))
        first = graph.edge_index_arrays()
        second = graph.edge_index_arrays()
        assert first[0] is second[0] and first[1] is second[1]
        assert not first[0].flags.writeable and not first[1].flags.writeable
        fresh_u, fresh_v = Torus((3, 4)).edge_index_arrays()
        assert (first[0] == fresh_u).all() and (first[1] == fresh_v).all()

    def test_node_digit_array_cached_and_correct(self):
        graph = Mesh((2, 3))
        digits = graph.node_digit_array()
        assert digits is graph.node_digit_array()
        assert not digits.flags.writeable
        assert [tuple(row) for row in digits.tolist()] == list(graph.nodes())


class TestContextAndCli:
    def test_batch_flag_defaults_on_and_pickles(self):
        import pickle

        context = ExecutionContext()
        assert context.batch is True
        off = ExecutionContext(batch=False)
        assert pickle.loads(pickle.dumps(off)).batch is False

    def test_survey_cli_no_batch_matches_batched(self, tmp_path):
        batched_path = tmp_path / "batched.json"
        reference_path = tmp_path / "reference.json"
        assert main(["survey", "--smoke", "--output", str(batched_path)]) == 0
        assert (
            main(["survey", "--smoke", "--no-batch", "--output", str(reference_path)])
            == 0
        )
        assert_identical_records(
            read_records(batched_path), read_records(reference_path)
        )
