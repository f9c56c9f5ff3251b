"""Tests for the population-based embedding optimizer (``repro.optimize``).

The load-bearing contract is the PR 2-7 differential extended to *search*:
the vectorized array engine and the pure-Python loop engine run the identical
shared RNG stream and acceptance logic, so a fixed seed must produce the
bit-for-bit identical best row, objective and persisted state on both
backends.  Everything else — objective encoding, seeding, cache keep-best,
suite integration, the registry opt-in — hangs off that equality.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import stacked_objective_components
from repro.exceptions import UnsupportedEmbeddingError
from repro.graphs.base import Mesh, Torus, make_graph
from repro.optimize import (
    OBJECTIVES,
    SCHEDULES,
    SEED_STRATEGIES,
    SUITE_OPTIONS,
    OptimizeOptions,
    OptimizeResult,
    SplitMix64,
    decode_primary,
    encode_objective,
    needs_congestion,
    objective_scale,
    optimize_embedding,
    register_optimized_strategy,
)
from repro.optimize.search import _ArrayEngine, _LoopEngine
from repro.runtime import ConstructionCache, OptimizerState, use_context
from repro.runtime.cache import optimum_cache_key
from repro.runtime.registry import STRATEGIES, build_strategy, strategy_names
from repro.survey.runner import SurveyOptions, run_survey
from repro.survey.scenarios import Scenario, scenarios_for_suite

pytestmark = pytest.mark.smoke

#: A small pair the loop engine searches in well under a second.
SMALL = (Torus((4, 4)), Mesh((4, 4)))
#: A pair without a paper construction, so baselines seed the search.
NO_PAPER = (Torus((3, 4)), Mesh((6, 2)))
FAST = OptimizeOptions(budget=80, population=6, seed=3)
#: Pairs with torus hosts: rings that runs wrap around, an extent-2 torus
#: dimension (one edge per line pair, like a mesh) and a 1-D host.
TORUS_HOSTS = [
    (Mesh((4, 4)), Torus((4, 4))),
    (Torus((3, 4)), Torus((2, 6))),
    (Mesh((4, 4)), Torus((16,))),
]


class TestSplitMix64:
    def test_stream_is_deterministic(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(8)] == [b.next_u64() for _ in range(8)]

    def test_known_first_output(self):
        # The reference SplitMix64 vector for seed 0 (Vigna's splitmix64.c).
        assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF

    def test_randrange_bounds_and_errors(self):
        rng = SplitMix64(7)
        assert all(0 <= rng.randrange(5) < 5 for _ in range(64))
        with pytest.raises(ValueError):
            rng.randrange(0)

    def test_random_unit_interval(self):
        rng = SplitMix64(9)
        assert all(0.0 <= rng.random() < 1.0 for _ in range(64))

    def test_shuffle_is_a_permutation(self):
        rng = SplitMix64(11)
        items = list(range(10))
        rng.shuffle(items)
        assert sorted(items) == list(range(10))
        repeat = list(range(10))
        SplitMix64(11).shuffle(repeat)
        assert repeat == items


class TestObjectiveEncoding:
    def test_scale_exceeds_any_dilation_total(self):
        guest, host = SMALL
        edges = sum(1 for _ in guest.edges())
        scale = objective_scale(edges, host.diameter())
        assert scale == edges * host.diameter() + 1
        # The worst possible dilation total never reaches the scale, so the
        # primary term and the tie-break never alias.
        assert edges * host.diameter() < scale

    @pytest.mark.parametrize(
        "objective, expected_primary",
        [("dilation", 4), ("congestion", 9), ("combined", 13)],
    )
    def test_encode_decode_roundtrip(self, objective, expected_primary):
        value = encode_objective(objective, 100, 4, 37, 9)
        assert decode_primary(value, 100) == expected_primary
        assert value % 100 == 37  # dil_sum rides along as the tie-break

    def test_needs_congestion(self):
        assert not needs_congestion("dilation")
        assert needs_congestion("congestion")
        assert needs_congestion("combined")

    def test_unknown_objective_raises(self):
        with pytest.raises(ValueError):
            encode_objective("latency", 100, 1, 1, 1)

    def test_lower_dilation_always_wins_over_tiebreak(self):
        better = encode_objective("dilation", 100, 2, 99, None)
        worse = encode_objective("dilation", 100, 3, 0, None)
        assert better < worse


class TestOptions:
    def test_defaults_validate(self):
        options = OptimizeOptions().validated()
        assert options.objective in OBJECTIVES
        assert options.schedule in SCHEDULES

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"objective": "latency"},
            {"schedule": "tabu"},
            {"budget": -1},
            {"population": 0},
        ],
    )
    def test_invalid_options_raise(self, kwargs):
        with pytest.raises(ValueError):
            OptimizeOptions(**kwargs).validated()


class TestSearchBasics:
    def test_result_shape_and_validity(self):
        guest, host = SMALL
        result = optimize_embedding(guest, host, FAST)
        assert isinstance(result, OptimizeResult)
        result.embedding.validate()
        assert result.embedding.strategy == "optimized"
        assert result.embedding.dilation() == result.dilation
        assert result.objective == result.state.objective
        # 4 strategy seeds + 2 restarts = 6 members; budget 80 -> 13 steps.
        assert result.steps == FAST.budget // FAST.population
        assert result.evaluations == FAST.population * (result.steps + 1)

    def test_search_never_loses_to_its_seeds(self):
        # The best seed is in the initial population and acceptance keeps the
        # incumbent on ties, so the result can never be worse than any seed.
        guest, host = SMALL
        result = optimize_embedding(guest, host, FAST)
        assert result.objective <= result.baseline_objective
        assert result.improved == (result.objective < result.baseline_objective)

    def test_paper_seed_sets_the_baseline(self):
        guest, host = SMALL
        paper = build_strategy("paper", guest, host)
        edges = sum(1 for _ in guest.edges())
        scale = objective_scale(edges, host.diameter())
        expected = encode_objective(
            "combined",
            scale,
            paper.dilation(),
            sum(paper.edge_dilations()),
            paper.edge_congestion(),
        )
        result = optimize_embedding(guest, host, FAST)
        assert result.baseline_objective == expected

    def test_pair_without_paper_construction_still_searches(self):
        guest, host = NO_PAPER
        result = optimize_embedding(guest, host, FAST)
        result.embedding.validate()
        assert result.provenance != "paper"

    @pytest.mark.parametrize("backend", ["array", "loop"])
    @pytest.mark.parametrize("objective", ["dilation", "congestion", "combined"])
    def test_result_columns_equal_full_scoring_of_its_row(self, backend, objective):
        # The driver keeps the columns the search priced the best row with;
        # here the best row is a candidate (search beats every seed), so
        # they come from the generation's incremental pricing.
        guest, host = NO_PAPER
        options = OptimizeOptions(objective=objective, budget=300, population=6)
        with use_context(backend=backend):
            result = optimize_embedding(guest, host, options)
        assert result.improved
        edge_u, edge_v = guest.edge_index_arrays()
        fresh = stacked_objective_components(
            host,
            edge_u,
            edge_v,
            result.embedding.host_index_array(),
            with_congestion=True,
        )
        congestion = None if objective == "dilation" else int(fresh.congestion[0])
        assert (result.dilation, result.dilation_total, result.congestion) == (
            int(fresh.dilation_max[0]),
            int(fresh.dilation_total[0]),
            congestion,
        )
        assert result.state.dilation == result.dilation
        assert result.state.congestion == congestion

    def test_unequal_sizes_rejected(self):
        with pytest.raises(UnsupportedEmbeddingError):
            optimize_embedding(Torus((4, 4)), Mesh((4, 5)))

    def test_zero_budget_returns_best_seed(self):
        guest, host = SMALL
        result = optimize_embedding(guest, host, OptimizeOptions(budget=0, seed=1))
        assert result.steps == 0
        assert result.evaluations == OptimizeOptions().population  # one scoring pass
        assert not result.improved


class TestDifferential:
    """Array vs loop: the whole search must agree bit for bit."""

    def run(self, backend, guest, host, options, cache=None):
        with use_context(backend=backend, cache=None):
            return optimize_embedding(guest, host, options, cache=cache)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_engines_agree_on_every_objective_and_schedule(self, objective, schedule):
        guest, host = SMALL
        options = OptimizeOptions(
            objective=objective, budget=60, population=5, seed=13, schedule=schedule
        )
        array = self.run("array", guest, host, options)
        loop = self.run("loop", guest, host, options)
        assert array.state == loop.state
        assert array.objective == loop.objective
        assert array.dilation == loop.dilation
        assert array.congestion == loop.congestion
        assert array.provenance == loop.provenance
        assert array.embedding.mapping == loop.embedding.mapping

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize(
        "pair", TORUS_HOSTS, ids=["mesh-torus", "torus-extent2", "mesh-ring"]
    )
    def test_engines_agree_on_torus_hosts(self, pair, objective, schedule):
        guest, host = pair
        options = OptimizeOptions(
            objective=objective, budget=90, population=6, seed=29, schedule=schedule
        )
        array = self.run("array", guest, host, options)
        loop = self.run("loop", guest, host, options)
        assert array.state == loop.state
        assert array.dilation_total == loop.dilation_total
        assert array.embedding.mapping == loop.embedding.mapping

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32), budget=st.integers(0, 64))
    def test_engines_agree_across_random_seeds(self, seed, budget):
        guest, host = NO_PAPER
        options = OptimizeOptions(budget=budget, population=4, seed=seed)
        array = self.run("array", guest, host, options)
        loop = self.run("loop", guest, host, options)
        assert array.state == loop.state
        assert array.embedding.mapping == loop.embedding.mapping

    def test_warm_started_runs_also_agree(self):
        guest, host = SMALL
        caches = {}
        for backend in ("array", "loop"):
            cache = ConstructionCache()
            self.run(backend, guest, host, FAST, cache=cache)
            second = self.run(
                backend, guest, host, OptimizeOptions(budget=40, seed=5), cache=cache
            )
            caches[backend] = (second.state, cache.fetch_optimum("combined", guest, host))
        assert caches["array"] == caches["loop"]


class TestEngineGenerations:
    """Array engine against loop engine, generation by generation.

    ``TestDifferential`` compares whole searches, whose results are mostly
    a seed row, and ``TestIncrementalScoring`` checks the array engine
    against full scoring that shares its run arithmetic.  Here the two
    engines price the same candidates from the same live population every
    generation, so a wrong incremental term fails in the generation that
    first uses it.
    """

    GENERATIONS = 30
    MEMBERS = 6

    @pytest.mark.parametrize(
        "with_congestion", [False, True], ids=["dilation", "congestion"]
    )
    @pytest.mark.parametrize(
        "pair",
        [SMALL, NO_PAPER, *TORUS_HOSTS],
        ids=["small", "no-paper", "mesh-torus", "torus-extent2", "mesh-ring"],
    )
    def test_engines_price_every_generation_alike(self, pair, with_congestion):
        guest, host = pair
        size = guest.size
        # One stream draws the seed rows, every move and every verdict.
        rng = SplitMix64(23)
        rows = []
        for _ in range(self.MEMBERS):
            row = list(range(size))
            rng.shuffle(row)
            rows.append(row)
        engines = [
            engine_cls(guest, host, with_congestion=with_congestion)
            for engine_cls in (_ArrayEngine, _LoopEngine)
        ]
        populations = [engine.population(rows) for engine in engines]
        starts = [
            engine.start(population) for engine, population in zip(engines, populations)
        ]
        assert starts[0] == starts[1]
        for generation in range(self.GENERATIONS):
            moves = []
            for _ in range(self.MEMBERS):
                kind = rng.randrange(2)
                i = rng.randrange(size)
                j = rng.randrange(size - 1)
                if j >= i:
                    j += 1
                moves.append((kind, min(i, j), max(i, j)))
            accepted = [rng.randrange(2) == 1 for _ in range(self.MEMBERS)]
            candidates = [
                engine.candidates(population, moves)
                for engine, population in zip(engines, populations)
            ]
            columns = [
                engine.price(population, candidate)
                for engine, population, candidate in zip(
                    engines, populations, candidates
                )
            ]
            assert columns[0] == columns[1], f"generation {generation}"
            for engine, population, candidate in zip(engines, populations, candidates):
                engine.commit(population, candidate, accepted)


#: Host and guest shapes of the incremental-scorer property test, grouped
#: by size: 1-D graphs, extent-2 dimensions and odd extents.
INCREMENTAL_SHAPES = [
    (9,), (3, 3),
    (12,), (2, 6), (3, 4), (4, 3), (2, 2, 3),
    (15,), (5, 3),
    (16,), (4, 4), (2, 8), (2, 2, 4),
]


@st.composite
def search_traces(draw):
    """A pair, a population and a few generations of moves and verdicts."""
    host_shape = draw(st.sampled_from(INCREMENTAL_SHAPES))
    size = math.prod(host_shape)
    guest_shape = draw(
        st.sampled_from([s for s in INCREMENTAL_SHAPES if math.prod(s) == size])
    )
    kinds = st.sampled_from(["torus", "mesh"])
    guest = make_graph(draw(kinds), guest_shape)
    host = make_graph(draw(kinds), host_shape)
    members = draw(st.integers(min_value=1, max_value=5))
    rows = [draw(st.permutations(range(size))) for _ in range(members)]
    node = st.integers(min_value=0, max_value=size - 1)
    ends = st.lists(node, min_size=2, max_size=2, unique=True)
    move = st.tuples(st.integers(0, 1), ends).map(
        lambda drawn: (drawn[0], min(drawn[1]), max(drawn[1]))
    )
    generation = st.tuples(
        st.lists(move, min_size=members, max_size=members),
        st.lists(st.booleans(), min_size=members, max_size=members),
    )
    generations = draw(st.lists(generation, min_size=1, max_size=6))
    return guest, host, rows, generations


class TestIncrementalScoring:
    """The array engine's kept state against fresh full scoring."""

    @settings(max_examples=80, deadline=None)
    @given(trace=search_traces(), with_congestion=st.booleans())
    def test_every_generation_matches_full_scoring(self, trace, with_congestion):
        guest, host, rows, generations = trace
        edge_u, edge_v = guest.edge_index_arrays()

        def full(matrix):
            return stacked_objective_components(
                host, edge_u, edge_v, matrix, with_congestion=with_congestion
            )

        engine = _ArrayEngine(guest, host, with_congestion=with_congestion)
        population = engine.population(rows)
        engine.start(population)
        for moves, accepted in generations:
            candidate = engine.candidates(population, moves)
            columns = engine.price(population, candidate)
            expected = full(candidate)
            assert columns[0] == expected.dilation_max.tolist()
            assert columns[1] == expected.dilation_total.tolist()
            if with_congestion:
                assert columns[2] == expected.congestion.tolist()
            else:
                assert columns[2] is None
            kept = population.copy()
            engine.commit(population, candidate, accepted)
            for member, take in enumerate(accepted):
                source = candidate if take else kept
                assert (population[member] == source[member]).all()
            fresh = full(population)
            assert np.array_equal(engine.distances, fresh.distances)
            if with_congestion:
                assert np.array_equal(engine.loads, fresh.loads)


class TestGreedyMonotonicity:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=999))
    def test_greedy_never_worse_than_its_seeds(self, seed):
        guest, host = NO_PAPER
        seeded = optimize_embedding(
            guest, host, OptimizeOptions(budget=0, population=4, seed=seed)
        )
        searched = optimize_embedding(
            guest,
            host,
            OptimizeOptions(budget=120, population=4, seed=seed, schedule="greedy"),
        )
        assert searched.objective <= seeded.objective

    def test_anneal_can_accept_uphill_but_result_still_bounded(self):
        # Annealing may walk uphill mid-run; the *reported* best never does.
        guest, host = SMALL
        result = optimize_embedding(
            guest, host, OptimizeOptions(budget=200, population=4, seed=21)
        )
        assert result.objective <= result.baseline_objective


class TestCachePersistence:
    def test_optimum_key_format(self):
        guest, host = SMALL
        assert optimum_cache_key("combined", guest, host) == (
            "optimum",
            "combined",
            "torus",
            (4, 4),
            "mesh",
            (4, 4),
        )

    def test_store_fetch_roundtrip_and_counters(self):
        guest, host = SMALL
        cache = ConstructionCache()
        result = optimize_embedding(guest, host, FAST, cache=cache)
        assert cache.optimum_count == 1
        fetched = cache.fetch_optimum("combined", guest, host)
        assert fetched == result.state

    def test_keep_best_rejects_worse_states(self):
        guest, host = SMALL
        cache = ConstructionCache()
        result = optimize_embedding(guest, host, FAST, cache=cache)
        worse = OptimizerState(
            host_indices=result.state.host_indices,
            objective=result.state.objective + 1,
            objective_mode="combined",
            dilation=result.dilation,
            congestion=result.congestion,
            steps=1,
            provenance="worse",
        )
        assert not cache.store_optimum("combined", guest, host, worse)
        assert cache.fetch_optimum("combined", guest, host) == result.state
        better = OptimizerState(
            host_indices=result.state.host_indices,
            objective=result.state.objective - 1,
            objective_mode="combined",
            dilation=result.dilation,
            congestion=result.congestion,
            steps=1,
            provenance="better",
        )
        assert cache.store_optimum("combined", guest, host, better)

    def test_warm_start_seeds_from_the_stored_state(self):
        guest, host = SMALL
        cache = ConstructionCache()
        first = optimize_embedding(guest, host, FAST, cache=cache)
        # A zero-budget re-run must surface the cached state untouched.
        replay = optimize_embedding(
            guest, host, OptimizeOptions(budget=0, seed=99), cache=cache
        )
        assert replay.objective <= first.objective
        assert cache.fetch_optimum("combined", guest, host).objective <= first.objective

    def test_state_survives_pickling(self, tmp_path):
        guest, host = SMALL
        cache = ConstructionCache()
        result = optimize_embedding(guest, host, FAST, cache=cache)
        path = tmp_path / "cache.pkl"
        cache.save(path)
        reloaded = ConstructionCache.load(path)
        assert reloaded.fetch_optimum("combined", guest, host) == result.state
        assert reloaded.optimum_count == 1

    def test_result_embedding_holds_the_stored_row(self):
        guest, host = SMALL
        cache = ConstructionCache()
        result = optimize_embedding(guest, host, FAST, cache=cache)
        embedding = result.embedding
        embedding.validate()
        assert embedding.strategy == "optimized"
        assert embedding.dilation() == result.dilation
        assert embedding.host_index_array().tolist() == list(result.state.host_indices)

    def test_states_pickle_standalone(self):
        state = OptimizerState(
            host_indices=(0, 1, 2),
            objective=5,
            objective_mode="dilation",
            dilation=1,
            congestion=None,
            steps=4,
            provenance="paper",
        )
        assert pickle.loads(pickle.dumps(state)) == state


class TestOptimaSuite:
    def test_suite_is_registered_with_fixed_pairs(self):
        scenarios = scenarios_for_suite("optima")
        assert len(scenarios) == 5
        assert all(s.strategy == "optimize" for s in scenarios)
        assert all(not s.traffic and not s.faults for s in scenarios)

    def test_scenario_ids_roundtrip(self):
        for scenario in scenarios_for_suite("optima"):
            assert Scenario.from_id(scenario.scenario_id) == scenario

    def test_survey_records_carry_the_search_columns(self):
        report = run_survey(
            scenarios_for_suite("optima")[:2],
            SurveyOptions(workers=1, with_congestion=True),
        )
        for record in report.records:
            assert record.status == "ok"
            assert record.search_objective is not None
            assert record.search_steps == SUITE_OPTIONS.budget // SUITE_OPTIONS.population
            assert record.improved in (True, False)
            assert record.predicted_dilation is None
            assert record.matches_prediction is None

    def test_suite_reuses_the_ambient_cache(self):
        cache = ConstructionCache()
        scenarios = scenarios_for_suite("optima")[:1]
        with use_context(cache=cache):
            first = run_survey(scenarios, SurveyOptions(workers=1))
        assert cache.optimum_count == 1
        with use_context(cache=cache):
            second = run_survey(scenarios, SurveyOptions(workers=1))
        assert cache.hits > 0
        assert first.records[0].search_objective >= second.records[0].search_objective


class TestRegistryIntegration:
    def test_optimized_is_not_a_default_strategy(self):
        assert "optimized" not in strategy_names()

    def test_register_opt_in_and_idempotent(self):
        try:
            register_optimized_strategy(FAST)
            assert "optimized" in strategy_names()
            register_optimized_strategy()  # second call is a no-op
            guest, host = SMALL
            embedding = build_strategy("optimized", guest, host)
            embedding.validate()
            assert embedding.strategy == "optimized"
        finally:
            STRATEGIES._entries.pop("optimized", None)

    def test_seed_strategies_never_include_optimized(self):
        # Guards against a registered "optimized" strategy recursing into
        # the optimizer through its own seed population.
        assert "optimized" not in SEED_STRATEGIES
        assert SEED_STRATEGIES == ("paper", "lexicographic", "bfs", "random")
