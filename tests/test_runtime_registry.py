"""Tests for the plugin registries of strategies and traffic patterns."""

import pytest

from repro.core.dispatch import embed
from repro.exceptions import SimulationError, UnsupportedEmbeddingError
from repro.graphs.base import Mesh, Torus
from repro.netsim import traffic_pattern, traffic_pattern_names
from repro.runtime import ConstructionCache, embedding_cache_key, use_context
from repro.runtime.registry import (
    STRATEGIES,
    TRAFFIC_PATTERNS,
    Registry,
    build_strategy,
    build_traffic,
    register_strategy,
    register_traffic,
    strategy_builder,
    strategy_names,
    traffic_names,
)

pytestmark = pytest.mark.smoke

PAIR = (Torus((4, 6)), Mesh((2, 2, 2, 3)))


def _unregister(registry, name):
    registry._entries.pop(name, None)


class TestRegistryMechanics:
    def test_default_strategies_registered(self):
        assert strategy_names() == ("paper", "lexicographic", "bfs", "random")

    def test_default_traffic_registered(self):
        assert traffic_names() == (
            "neighbor-exchange",
            "transpose",
            "all-to-all-groups",
            "random-permutation",
            "hotspot",
            "bursty",
        )

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate embedding strategy"):
            register_strategy("paper", lambda guest, host: None)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(KeyError, match="choose from paper, lexicographic"):
            strategy_builder("psychic")

    def test_decorator_registration(self):
        registry = Registry("probe")

        @registry.register("one")
        def builder():
            return 1

        assert registry.get("one") is builder
        assert "one" in registry and len(registry) == 1

    def test_early_registration_preempts_the_default_loader(self):
        def load_defaults():
            registry.register("paper", "builtin")
            registry.register("extra", "builtin-extra")

        registry = Registry("probe", load_defaults)
        registry.register("paper", "mine")  # before any lookup
        assert registry.get("paper") == "mine"  # pre-emption, not ValueError
        assert registry.get("extra") == "builtin-extra"
        # after loading, duplicates are errors again
        with pytest.raises(ValueError, match="duplicate probe"):
            registry.register("paper", "other")

    def test_failing_loader_is_retried_on_next_lookup(self):
        attempts = []

        def flaky_loader():
            attempts.append(1)
            if len(attempts) == 1:
                raise ImportError("transient")
            registry.register("late", "ok")

        registry = Registry("probe", flaky_loader)
        with pytest.raises(ImportError):
            registry.names()
        assert registry.get("late") == "ok"  # second lookup retried the load
        assert len(attempts) == 2

    def test_custom_strategy_plugs_into_the_shared_table(self):
        guest, host = PAIR

        @register_strategy("test-identity-rank")
        def rank_order(guest, host):
            from repro.baselines import lexicographic_embedding

            return lexicographic_embedding(guest, host)

        try:
            assert "test-identity-rank" in strategy_names()
            embedding = build_strategy("test-identity-rank", guest, host)
            assert embedding.is_bijective()
        finally:
            _unregister(STRATEGIES, "test-identity-rank")

    def test_custom_traffic_reaches_the_netsim_resolver(self):
        from repro.netsim import TrafficPattern

        @register_traffic("test-silence")
        def silence(guest, *, message_size=1.0):
            return TrafficPattern("silence", ())

        try:
            assert "test-silence" in traffic_pattern_names()
            assert len(traffic_pattern("test-silence", PAIR[0])) == 0
        finally:
            _unregister(TRAFFIC_PATTERNS, "test-silence")


class TestSharedTables:
    def test_survey_and_experiments_resolve_the_same_objects(self):
        # The dedup satellite: one registry, no per-module copies left.
        import repro.experiments.simulation_tables as simulation_tables
        import repro.survey.runner as runner

        assert not hasattr(runner, "STRATEGY_BUILDERS")
        assert not hasattr(simulation_tables, "STRATEGY_BUILDERS")
        assert simulation_tables.strategy_names is strategy_names

    def test_traffic_resolution_matches_direct_builders(self):
        from repro.netsim import neighbor_exchange_traffic

        guest = Torus((3, 4))
        assert build_traffic("neighbor-exchange", guest) == neighbor_exchange_traffic(
            guest
        )

    def test_unknown_traffic_is_a_simulation_error(self):
        with pytest.raises(SimulationError, match="unknown traffic pattern"):
            traffic_pattern("psychic", Torus((3, 4)))


class TestStrategyCaching:
    def test_baselines_memoize_under_their_name(self):
        guest, host = PAIR
        cache = ConstructionCache()
        with use_context(cache=cache):
            first = build_strategy("lexicographic", guest, host)
            second = build_strategy("lexicographic", guest, host)
        assert cache.hits == 1
        assert second.mapping == first.mapping
        assert ("embedding", "strategy:lexicographic") == tuple(
            next(iter(cache.data))[:2]
        )

    def test_paper_strategy_shares_one_key_with_embed(self):
        guest, host = PAIR
        cache = ConstructionCache()
        with use_context(cache=cache):
            built = build_strategy("paper", guest, host)
            embedded = embed(guest, host)
        assert (cache.misses, cache.hits) == (1, 1)
        assert list(cache.data) == [embedding_cache_key("paper", guest, host)]
        assert embedded.mapping == built.mapping
        assert embedded.strategy == built.strategy
        assert built.strategy.startswith("increasing:")

    @pytest.mark.parametrize("backend", ["array", "loop"])
    @pytest.mark.parametrize("name", ["paper", "lexicographic", "bfs", "random"])
    def test_every_default_strategy_memoizes_under_its_name(self, name, backend):
        guest, host = PAIR
        cache = ConstructionCache()
        with use_context(backend=backend, cache=cache):
            cold = build_strategy(name, guest, host)
            warm = build_strategy(name, guest, host)
        assert warm is not cold
        assert warm.mapping == cold.mapping
        assert warm.strategy == cold.strategy
        assert warm.predicted_dilation == cold.predicted_dilation
        assert warm.notes == cold.notes
        assert (cache.misses, cache.hits) == (1, 1)
        assert list(cache.data) == [
            ("embedding", f"strategy:{name}", "torus", (4, 6), "mesh", (2, 2, 2, 3))
        ]

    def test_unsupported_pairs_are_memoized_and_raised_again(self):
        guest, host = PAIR
        calls = []

        @register_strategy("test-never")
        def never(guest, host):
            calls.append((guest, host))
            raise UnsupportedEmbeddingError(f"never embeds {guest!r}")

        try:
            cache = ConstructionCache()
            with use_context(cache=cache):
                with pytest.raises(UnsupportedEmbeddingError) as cold:
                    build_strategy("test-never", guest, host)
                with pytest.raises(UnsupportedEmbeddingError) as warm:
                    build_strategy("test-never", guest, host)
        finally:
            _unregister(STRATEGIES, "test-never")
        assert len(calls) == 1
        assert str(warm.value) == str(cold.value) == f"never embeds {guest!r}"
        assert (cache.misses, cache.hits) == (1, 1)
        assert cache.construction_count == 0

    def test_no_cache_no_memoization(self):
        guest, host = PAIR
        first = build_strategy("bfs", guest, host)
        second = build_strategy("bfs", guest, host)
        assert first is not second
        assert first.mapping == second.mapping
