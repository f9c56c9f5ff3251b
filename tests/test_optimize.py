"""Tests for the population-based embedding optimizer (``repro.optimize``).

The load-bearing contract is the PR 2-7 differential extended to *search*:
the vectorized array engine and the pure-Python loop engine run the identical
shared RNG stream and acceptance logic, so a fixed seed must produce the
bit-for-bit identical best row, objective and persisted state on both
backends.  Everything else — objective encoding, seeding, cache keep-best,
suite integration, the registry opt-in — hangs off that equality.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import UnsupportedEmbeddingError
from repro.graphs.base import Mesh, Torus
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
