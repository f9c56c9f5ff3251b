"""Torn-write and interrupt hardening tests.

Covers the bugfix half of the service PR: atomic artifact writes
(``atomic_write`` + its ``store.py``/``cache.py`` call sites), recovery from
files truncated mid-byte (a torn shard is recomputed, a torn cache pickle
warns and starts cold), the case-insensitive CSV boolean parser, and the
Ctrl-C exit path of the CLI.
"""

import json
import math
import os
import pickle
import stat
import warnings

import pytest

from repro.cli import main
from repro.graphs.base import Mesh, Torus
from repro.runtime import ConstructionCache
from repro.survey import (
    SurveyOptions,
    SurveyRecord,
    all_pairs,
    read_csv,
    read_json,
    run_survey,
    write_csv,
    write_json,
)
from repro.utils import atomic_write

pytestmark = pytest.mark.smoke


def make_record(scenario_id="torus:4,6->mesh:4,6", **overrides):
    base = dict(
        scenario_id=scenario_id,
        guest="Torus(4, 6)",
        host="Mesh(4, 6)",
        nodes=24,
        guest_edges=48,
        status="ok",
        strategy="paper",
        dilation=2,
        average_dilation=1.5,
        matches_prediction=True,
    )
    base.update(overrides)
    return SurveyRecord(**base)


def truncate_mid_byte(path):
    """Chop a file roughly in half — the classic kill-mid-write artifact."""
    data = path.read_bytes()
    assert len(data) > 2
    path.write_bytes(data[: len(data) // 2])


class TestAtomicWrite:
    def test_creates_file_and_leaves_no_temp_siblings(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_write(target) as handle:
            handle.write("payload")
        assert target.read_text() == "payload"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_binary_mode(self, tmp_path):
        target = tmp_path / "out.bin"
        with atomic_write(target, mode="wb") as handle:
            handle.write(b"\x00\x01")
        assert target.read_bytes() == b"\x00\x01"

    def test_failure_preserves_previous_content(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("previous")
        with pytest.raises(RuntimeError, match="mid-write"):
            with atomic_write(target) as handle:
                handle.write("half a docu")
                raise RuntimeError("kill mid-write")
        assert target.read_text() == "previous"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_creates_missing_parent_directories(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "out.txt"
        with atomic_write(target) as handle:
            handle.write("x")
        assert target.read_text() == "x"

    def test_rejects_non_write_modes(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            with atomic_write(tmp_path / "out.txt", mode="a"):
                pass

    def test_store_writers_leave_no_temp_siblings(self, tmp_path):
        records = [make_record()]
        write_json(records, tmp_path / "r.json")
        write_csv(records, tmp_path / "r.csv")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.json"]

    def test_failed_json_write_preserves_previous_document(self, tmp_path):
        path = tmp_path / "r.json"
        good = [make_record()]
        write_json(good, path)
        # A record smuggling a non-serializable value kills json.dump midway;
        # the original document must survive the failed overwrite.
        bad = [make_record(error=object())]
        with pytest.raises(TypeError):
            write_json(bad, path)
        assert read_json(path) == good
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


@pytest.fixture
def umask_022():
    """Run the test under the common ``022`` umask, whatever the caller's."""
    previous = os.umask(0o022)
    yield
    os.umask(previous)


def permission_bits(path):
    return stat.S_IMODE(path.stat().st_mode)


@pytest.mark.usefixtures("umask_022")
class TestAtomicWritePermissions:
    def test_new_files_get_the_permissions_of_a_plain_open(self, tmp_path):
        plain = tmp_path / "plain.txt"
        with open(plain, "w") as handle:
            handle.write("x")
        write_json([], tmp_path / "r.json")
        write_csv([], tmp_path / "r.csv")
        ConstructionCache().save(tmp_path / "cache.pkl")
        for name in ("r.json", "r.csv", "cache.pkl"):
            assert permission_bits(tmp_path / name) == permission_bits(plain), name

    def test_replace_keeps_the_destination_mode(self, tmp_path):
        target = tmp_path / "r.json"
        write_json([], target)
        target.chmod(0o640)
        write_json([make_record()], target)
        assert permission_bits(target) == 0o640
        assert read_json(target) == [make_record()]


def indent_one_dump(records):
    """The document ``write_json`` wrote before it streamed: ``json.dump``."""
    payload = {
        "format": "repro-survey/1",
        "count": len(records),
        "records": [record.as_dict() for record in records],
    }
    return (json.dumps(payload, indent=1) + "\n").encode("utf-8")


#: Strings that would break a writer which splits or rewrites encoded text:
#: member-separator look-alikes (inside and at the end of a string), record
#: and list closers, backslashes, quotes and non-ASCII text.
AWKWARD_STRINGS = [
    'a, "b": 1',
    "ends with a separator, ",
    'x}, {"y": 2',
    "closes the list}]",
    "back\\slash \\\" and \\n",
    "non-ASCII: Σ, é, 漢, \u2028, \x00",
    '",\n   "',
]


class TestStreamingJsonWriter:
    """``write_json`` streams, yet writes ``json.dump(indent=1)``'s bytes."""

    def assert_same_bytes(self, records, tmp_path):
        path = tmp_path / "records.json"
        write_json(records, path)
        assert path.read_bytes() == indent_one_dump(records)
        return path

    def test_real_sweep(self, tmp_path):
        records = run_survey(
            all_pairs(16), SurveyOptions(workers=1, with_congestion=True)
        ).records
        assert {record.status for record in records} >= {"ok", "unsupported"}
        path = self.assert_same_bytes(records, tmp_path)
        assert read_json(path) == records

    @pytest.mark.parametrize("count", [0, 1])
    def test_empty_list_and_one_record(self, count, tmp_path):
        records = [make_record()][:count]
        path = self.assert_same_bytes(records, tmp_path)
        assert read_json(path) == records

    def test_awkward_strings(self, tmp_path):
        records = [
            make_record(scenario_id=f"s{index}", error=text, strategy=text[::-1])
            for index, text in enumerate(AWKWARD_STRINGS)
        ]
        path = self.assert_same_bytes(records, tmp_path)
        assert read_json(path) == records

    def test_nan_and_infinite_floats(self, tmp_path):
        records = [
            make_record(
                average_dilation=math.nan,
                estimated_time=math.inf,
                makespan=-math.inf,
            )
        ]
        path = self.assert_same_bytes(records, tmp_path)
        (back,) = read_json(path)
        assert math.isnan(back.average_dilation)
        assert back.estimated_time == math.inf and back.makespan == -math.inf
        assert {**back.as_dict(), "average_dilation": None} == {
            **records[0].as_dict(),
            "average_dilation": None,
        }


class TestBoolCells:
    @pytest.mark.parametrize(
        ("cell", "expected"),
        [("true", True), ("True", True), ("TRUE", True), (" true ", True),
         ("false", False), ("False", False), ("FALSE", False)],
    )
    def test_legacy_capitalizations_parse(self, tmp_path, cell, expected):
        path = tmp_path / "r.csv"
        write_csv([make_record()], path)
        header, row = path.read_text().splitlines()
        row = row.replace("true", cell)
        path.write_text(f"{header}\r\n{row}\r\n")
        assert read_csv(path)[0].matches_prediction is expected

    def test_unrecognized_cell_raises_instead_of_guessing(self, tmp_path):
        path = tmp_path / "r.csv"
        write_csv([make_record()], path)
        path.write_text(path.read_text().replace("true", "yes"))
        with pytest.raises(ValueError, match="unrecognized boolean cell"):
            read_csv(path)

    def test_round_trip_preserves_booleans(self, tmp_path):
        records = [
            make_record("a->b", matches_prediction=True),
            make_record("c->d", matches_prediction=False),
            make_record("e->f", matches_prediction=None),
        ]
        path = tmp_path / "r.csv"
        write_csv(records, path)
        assert [r.matches_prediction for r in read_csv(path)] == [True, False, None]


class TestTornShardRecovery:
    def test_truncated_shard_recomputed_others_reused(self, tmp_path):
        scenarios = all_pairs(12)
        options = SurveyOptions(workers=1, shard_size=5, shard_dir=str(tmp_path))
        reference = run_survey(scenarios, options)
        shard_count = len(reference.shard_paths)
        assert shard_count >= 2
        truncate_mid_byte(tmp_path / "shard-0000.json")
        resumed = run_survey(scenarios, options)
        # Exactly the torn shard was recomputed; every intact one was reused.
        assert resumed.reused_shard_indices == list(range(1, shard_count))
        strip = lambda r: {**r.as_dict(), "elapsed_seconds": None}
        assert [strip(r) for r in resumed.records] == [
            strip(r) for r in reference.records
        ]
        # The recompute healed the torn file for the next resume.
        rerun = run_survey(scenarios, options)
        assert rerun.reused_shard_indices == list(range(shard_count))


class TestTornCacheRecovery:
    def test_truncated_pickle_warns_and_starts_cold(self, tmp_path):
        path = tmp_path / "cache.pkl"
        cache = ConstructionCache()
        for extent in range(4, 40, 2):
            cache.store_family(Torus((extent, 6)), Mesh((extent, 6)), "increasing")
        cache.save(path)
        truncate_mid_byte(path)
        with pytest.warns(RuntimeWarning, match="unreadable .*starting cold"):
            cold = ConstructionCache.load(path)
        assert len(cold) == 0

    def test_wrong_payload_type_warns_and_starts_cold(self, tmp_path):
        path = tmp_path / "cache.pkl"
        path.write_bytes(pickle.dumps(["not", "a", "cache"]))
        with pytest.warns(RuntimeWarning, match="not a cache dict"):
            cold = ConstructionCache.load(path)
        assert cold.construction_count == 0

    def test_intact_save_load_round_trip_is_silent(self, tmp_path):
        path = tmp_path / "cache.pkl"
        cache = ConstructionCache()
        cache.store_family(Torus((4, 6)), Mesh((4, 6)), "increasing")
        cache.save(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warm = ConstructionCache.load(path)
        assert warm.fetch_family(Torus((4, 6)), Mesh((4, 6))) == ("increasing", None)
        assert [p.name for p in tmp_path.iterdir()] == ["cache.pkl"]


class TestKeyboardInterrupt:
    def test_cli_returns_130_and_says_interrupted(self, monkeypatch, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.cli.embed", interrupted)
        code = main(["embed", "--guest", "torus:4,6", "--host", "mesh:4,6"])
        assert code == 130
        assert "interrupted" in capsys.readouterr().err

    def test_survey_interrupt_also_exits_130(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(
            "repro.cli.run_survey",
            lambda *args, **kwargs: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
        code = main(["survey", "--suite", "smoke", "--out", str(tmp_path / "o.json")])
        assert code == 130
        assert "interrupted" in capsys.readouterr().err


class TestChaosTornWrite:
    """The chaos plane's torn_write fault flows through every store writer."""

    def test_injected_torn_write_preserves_previous_document(self, tmp_path):
        from repro.runtime import use_context
        from repro.runtime.chaos import InjectedFault

        target = tmp_path / "results.json"
        write_json([make_record()], target)
        before = target.read_bytes()
        with use_context(chaos="torn_write:1.0,seed=3"):
            with pytest.raises(InjectedFault, match="torn_write"):
                write_json([make_record(dilation=9)], target)
        assert target.read_bytes() == before  # the rename never happened
        assert not list(tmp_path.glob("*.tmp"))

    def test_injected_torn_write_on_cache_snapshot_keeps_old_pickle(self, tmp_path):
        from repro.runtime import use_context
        from repro.runtime.chaos import InjectedFault

        path = tmp_path / "cache.pkl"
        cache = ConstructionCache()
        cache.save(path)
        before = path.read_bytes()
        with use_context(chaos="torn_write:1.0,seed=3"):
            with pytest.raises(InjectedFault, match="torn_write"):
                cache.save(path)
        assert path.read_bytes() == before
        ConstructionCache.load(path)  # still a loadable pickle
