"""Tests for the construction cache: content addressing, sharing, identity."""

import json
import pickle
import warnings

import pytest

from repro.core.dispatch import embed, strategy_for
from repro.exceptions import UnsupportedEmbeddingError
from repro.graphs.base import Mesh, Torus
from repro.runtime import ConstructionCache, use_context
from repro.runtime.cache import (
    OptimizerState,
    embedding_cache_key,
    optimum_cache_key,
)

PAIR = (Torus((4, 6)), Mesh((2, 2, 2, 3)))


def _optimum(objective):
    """A stored optimum of PAIR with the given encoded objective."""
    return OptimizerState(tuple(range(24)), objective, "combined", 1, 1, 0, "test")


class TestContentAddressing:
    def test_embedding_key_format(self):
        guest, host = PAIR
        assert embedding_cache_key("paper", guest, host) == (
            "embedding",
            "strategy:paper",
            "torus",
            (4, 6),
            "mesh",
            (2, 2, 2, 3),
        )

    @pytest.mark.parametrize(
        "guest,host",
        [(Torus((4, 6)), Mesh((2, 2, 2, 3))), (Mesh((3, 4)), Torus((12,)))],
    )
    def test_keys_are_tuples_of_plain_strings_for_both_kinds(self, guest, host):
        guest_kind = "torus" if guest.is_torus else "mesh"
        host_kind = "torus" if host.is_torus else "mesh"
        keys = {
            embedding_cache_key("paper", guest, host): (
                "embedding", "strategy:paper",
                guest_kind, guest.shape, host_kind, host.shape,
            ),
            optimum_cache_key("combined", guest, host): (
                "optimum", "combined",
                guest_kind, guest.shape, host_kind, host.shape,
            ),
        }
        for key, literal in keys.items():
            assert key == literal
            # Plain str, not the GraphKind enum: the pickled keys of older
            # cache files hold str, and an enum member hashes differently.
            assert [type(part) for part in key] == [str, str, str, tuple, str, tuple]
            assert hash(key) == hash(literal)

    def test_a_file_written_with_literal_string_keys_still_hits(self, tmp_path):
        guest, host = PAIR
        built = ConstructionCache()
        with use_context(cache=built):
            embed(guest, host)
        (payload,) = built.data.values()
        literal = ("embedding", "strategy:paper", "torus", (4, 6), "mesh", (2, 2, 2, 3))
        path = tmp_path / "literal-keys.pkl"
        path.write_bytes(pickle.dumps({literal: payload}))
        cache = ConstructionCache.load(path)
        with use_context(cache=cache):
            embed(guest, host)
        assert (cache.hits, cache.misses) == (1, 0)

    def test_dispatcher_memoizes_under_the_paper_strategy_key(self):
        guest, host = PAIR
        cache = ConstructionCache()
        with use_context(cache=cache):
            embed(guest, host)
        assert list(cache.data) == [embedding_cache_key("paper", guest, host)]
        assert cache.construction_count == 1 and len(cache) == 1

    def test_hit_and_miss_counters(self):
        guest, host = PAIR
        cache = ConstructionCache()
        with use_context(cache=cache):
            embed(guest, host)
            embed(guest, host)
            embed(guest, host)
        assert cache.misses == 1
        assert cache.hits == 2


class TestReconstruction:
    def test_cached_embedding_is_node_for_node_identical(self):
        guest, host = PAIR
        cache = ConstructionCache()
        with use_context(cache=cache):
            built = embed(guest, host)
            cached = embed(guest, host)
        assert cached is not built
        assert cached.strategy == built.strategy
        assert cached.predicted_dilation == built.predicted_dilation
        assert cached.notes == built.notes
        assert cached.mapping == built.mapping
        cached.validate()

    def test_cache_entries_are_backend_agnostic(self):
        # Built under the array backend, consumed under the loop backend
        # (and vice versa): the payload must rehydrate identically.
        guest, host = PAIR
        cache = ConstructionCache()
        with use_context(backend="array", cache=cache):
            array_built = embed(guest, host)
        with use_context(backend="loop", cache=cache):
            loop_rehydrated = embed(guest, host)
        assert cache.hits == 1
        assert loop_rehydrated.mapping == array_built.mapping
        assert loop_rehydrated.strategy == array_built.strategy

    def test_unsupported_pairs_raise_identically_with_a_cache(self):
        guest, host = Mesh((4, 6)), Mesh((3, 8))
        assert strategy_for(guest, host) == "unsupported"
        cache = ConstructionCache()
        with pytest.raises(UnsupportedEmbeddingError) as bare:
            embed(guest, host)
        with use_context(cache=cache):
            with pytest.raises(UnsupportedEmbeddingError) as cold:
                embed(guest, host)
            with pytest.raises(UnsupportedEmbeddingError) as warm:
                embed(guest, host)
        assert str(cold.value) == str(bare.value) == str(warm.value)
        key = embedding_cache_key("paper", guest, host)
        assert cache.data == {key: str(bare.value)}
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.construction_count == 0


class TestSharingAndPersistence:
    def test_snapshot_warm_starts_a_new_cache(self):
        guest, host = PAIR
        parent = ConstructionCache()
        with use_context(cache=parent):
            embed(guest, host)
        worker = ConstructionCache(parent.snapshot())
        with use_context(cache=worker):
            embed(guest, host)
        assert worker.hits == 1 and worker.misses == 0

    def test_merge_counts_new_entries_only(self):
        guest, host = PAIR
        a, b = ConstructionCache(), ConstructionCache()
        with use_context(cache=a):
            embed(guest, host)
        assert b.merge(a.snapshot()) == len(a)
        assert b.merge(a.snapshot()) == 0

    def test_merge_keeps_the_better_optimum(self):
        guest, host = PAIR
        key = optimum_cache_key("combined", guest, host)
        cache = ConstructionCache({key: _optimum(5)})
        assert cache.merge({key: _optimum(9)}) == 0
        assert cache.data[key] == _optimum(5)
        assert cache.merge({key: _optimum(3)}) == 0
        assert cache.data[key] == _optimum(3)

    def test_journal_holds_every_entry_stored_new_or_replaced(self):
        guest, host = PAIR
        cache = ConstructionCache()
        with use_context(cache=cache):
            embed(guest, host)
        cache.store_optimum("combined", guest, host, _optimum(9))
        cache.start_journal()
        cache.store_optimum("combined", guest, host, _optimum(5))  # replaces
        cache.store_optimum("combined", guest, host, _optimum(7))  # kept out
        other = (Torus((4, 4)), Mesh((4, 4)))
        with use_context(cache=cache):
            embed(guest, host)  # a hit stores nothing
            embed(*other)
        built = embedding_cache_key("paper", *other)
        assert cache.take_journal() == {
            optimum_cache_key("combined", guest, host): _optimum(5),
            built: cache.data[built],
        }
        assert cache.take_journal() == {}

    def test_pickle_round_trip(self):
        guest, host = PAIR
        cache = ConstructionCache()
        with use_context(cache=cache):
            built = embed(guest, host)
        clone = pickle.loads(pickle.dumps(cache))
        with use_context(cache=clone):
            rehydrated = embed(guest, host)
        assert clone.hits == 1
        assert rehydrated.mapping == built.mapping

    def test_save_and_load(self, tmp_path):
        guest, host = PAIR
        cache = ConstructionCache()
        with use_context(cache=cache):
            embed(guest, host)
        path = cache.save(tmp_path / "cache.pkl")
        loaded = ConstructionCache.load(path)
        assert len(loaded) == len(cache)
        with use_context(cache=loaded):
            embed(guest, host)
        assert loaded.hits == 1

    def test_load_drops_the_entries_of_older_key_forms(self, tmp_path):
        guest, host = PAIR
        cache = ConstructionCache()
        with use_context(cache=cache):
            embed(guest, host)
            with pytest.raises(UnsupportedEmbeddingError):
                embed(Mesh((4, 9)), Mesh((6, 3, 2)))
        live = dict(cache.data)
        paper = live[embedding_cache_key("paper", guest, host)]
        optimum = optimum_cache_key("dilation", guest, host)
        live[optimum] = OptimizerState(
            paper.host_indices, 1, "dilation", 1, None, 0, "seed"
        )
        pair = ("torus", (4, 6), "mesh", (2, 2, 2, 3))
        # A file written before every construction was keyed by strategy
        # name: the paper's construction under its family, the family itself
        # and the derived edge arrays.
        old = {
            **live,
            ("embedding", "increasing", *pair): paper,
            ("family", *pair): "increasing",
            ("edges", "torus", (4, 6)): ((0, 1), (1, 2)),
        }
        path = tmp_path / "old.pkl"
        path.write_bytes(pickle.dumps(old))
        loaded = ConstructionCache.load(path)
        assert loaded.construction_count == 1
        assert len(loaded) == 3
        assert loaded.optimum_count == 1
        saved = pickle.loads(loaded.save(tmp_path / "new.pkl").read_bytes())
        assert set(saved) == set(live)

    def test_load_missing_file_yields_empty_cache_silently(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(ConstructionCache.load(tmp_path / "absent.pkl")) == 0

    def test_load_corrupt_file_warns_and_starts_cold(self, tmp_path):
        torn = tmp_path / "torn.pkl"
        torn.write_bytes(b"\x80\x04 this is not a pickle")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert len(ConstructionCache.load(torn)) == 0
        not_a_dict = tmp_path / "list.pkl"
        not_a_dict.write_bytes(pickle.dumps([1, 2, 3]))
        with pytest.warns(RuntimeWarning, match="not a cache dict"):
            assert len(ConstructionCache.load(not_a_dict)) == 0


class TestGoldenIdentityWithCaching:
    def test_sim_map_golden_rows_byte_identical_with_cache_on_and_off(self):
        # The pinned SIM-MAP table must serialize to the same bytes whether
        # the constructions come from the dispatcher or from a warm cache.
        from tests.test_golden_tables import TABLES, load_fixture

        def rows_json():
            return json.dumps(TABLES["tab_sim_map"](), sort_keys=True)

        bare = rows_json()
        cache = ConstructionCache()
        with use_context(cache=cache):
            cold = rows_json()
            warm = rows_json()
        assert cache.hits > 0  # the warm pass really came from the cache
        assert bare == cold == warm
        fixture = json.dumps(
            json.loads(json.dumps(TABLES["tab_sim_map"]())), sort_keys=True
        )
        pinned = json.dumps(load_fixture("tab_sim_map")["rows"], sort_keys=True)
        assert fixture == pinned

    def test_exhaustive_survey_records_identical_with_cache(self):
        from repro.survey import SurveyOptions, run_survey, scenarios_for_suite

        scenarios = scenarios_for_suite("smoke")
        bare = run_survey(scenarios, SurveyOptions(workers=1))
        cache = ConstructionCache()
        with use_context(cache=cache):
            cold = run_survey(scenarios, SurveyOptions(workers=1))
            warm = run_survey(scenarios, SurveyOptions(workers=1))
        strip = lambda r: {**r.as_dict(), "elapsed_seconds": None}
        assert [strip(r) for r in bare.records] == [strip(r) for r in cold.records]
        assert [strip(r) for r in cold.records] == [strip(r) for r in warm.records]
        assert warm.cache_entries == cache.construction_count
