"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main, parse_graph
from repro.graphs.base import Mesh, Torus

SURVEY = ["survey", "--smoke", "--output", ""]
OPTIMIZE = ["optimize", "--guest", "torus:4,4", "--host", "mesh:4,4"]


class TestParseGraph:
    def test_torus(self):
        graph = parse_graph("torus:4,6")
        assert graph == Torus((4, 6))

    def test_mesh_with_spaces(self):
        assert parse_graph("mesh: 2,2,3") == Mesh((2, 2, 3))

    def test_invalid(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_graph("blob")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_graph("cube:2,2")


class TestCommands:
    def test_embed_command(self, capsys):
        assert main(["embed", "--guest", "torus:4,6", "--host", "mesh:2,2,2,3"]) == 0
        out = capsys.readouterr().out
        assert "dilation" in out
        assert "Torus(4, 6)" in out

    def test_embed_with_grid_and_congestion(self, capsys):
        assert main(
            ["embed", "--guest", "ring:12", "--host", "mesh:3,4", "--grid", "--congestion"]
        ) == 0
        out = capsys.readouterr().out
        assert "congestion" in out

    @pytest.mark.parametrize(
        "figure", ["fig1", "fig3", "fig4", "fig9", "fig10", "fig11", "fig12"]
    )
    def test_figure_commands(self, figure, capsys):
        assert main(["figure", figure]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) > 3

    def test_unknown_figure(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "fig1, fig2, fig3, fig4, fig9" in capsys.readouterr().err

    def test_simulate_command(self, capsys):
        assert main(["simulate", "--guest", "torus:4,4", "--host", "mesh:2,2,2,2"]) == 0
        out = capsys.readouterr().out
        assert "paper" in out and "random" in out and "makespan" in out

    def test_parser_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "torus-mesh-embed" in out
        assert any(part[:1].isdigit() for part in out.split())  # a version number

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["survey", "--suite", "nope"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["embed", "simulate", "optimize"])
    @pytest.mark.parametrize(
        "guest, host, bad",
        [("torus:4,a", "mesh:4,4", "torus:4,a"), ("torus:4,4", "blob:4,4", "blob:4,4")],
    )
    def test_malformed_graph_spec_is_a_usage_error(
        self, command, guest, host, bad, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--guest", guest, "--host", host])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and bad in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--window", "-1"),
            ("--window", "nan"),
            ("--window", "inf"),
            ("--max-batch", "0"),
            ("--max-pending", "0"),
        ],
    )
    def test_out_of_range_serve_flag_is_a_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"argument {flag}: must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            # `scenarios[:-1]` used to drop the last scenario and exit 0.
            (SURVEY, "--limit", "-1"),
            (SURVEY, "--limit", "0"),
            # A negative shard size used to run silently in shards of 1.
            (SURVEY, "--shard-size", "-3"),
            (SURVEY, "--shard-size", "0"),
            (SURVEY, "--workers", "0"),
            # These used to end in a ValueError traceback from the options.
            (OPTIMIZE, "--population", "0"),
            (OPTIMIZE, "--budget", "-5"),
        ],
        ids=lambda part: part[0] if isinstance(part, list) else part,
    )
    def test_out_of_range_survey_and_optimize_flags_are_usage_errors(
        self, command, flag, value, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(command + [flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"argument {flag}: must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [
            ["embed", "--guest", "torus:4,4", "--host", "mesh:4,4"],
            ["simulate", "--guest", "torus:4,4", "--host", "mesh:4,4"],
            ["survey", "--smoke"],
            ["optimize", "--guest", "torus:4,4", "--host", "mesh:4,4"],
            ["serve", "--port", "0"],
        ],
        ids=lambda command: command[0],
    )
    def test_removed_compiled_method_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--method", "compiled"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "'compiled' (the C simulator tier) was removed in repro 3.0" in err
        assert "Traceback" not in err


class TestOptimizeCommand:
    OPT = ["optimize", "--guest", "torus:4x4", "--host", "mesh:4x4"]

    def test_optimize_command(self, capsys):
        assert main(self.OPT + ["--budget", "80", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        for column in ("objective", "dilation", "steps", "seeded from", "improved"):
            assert column in out
        assert "Torus(4, 4)" in out and "Mesh(4, 4)" in out

    def test_optimize_backends_print_identical_tables(self, capsys):
        flags = ["--budget", "60", "--seed", "3"]
        assert main(self.OPT + flags + ["--method", "array"]) == 0
        array_out = capsys.readouterr().out
        assert main(self.OPT + flags + ["--method", "loop"]) == 0
        assert capsys.readouterr().out == array_out

    def test_optimize_cache_roundtrip_feeds_the_survey(self, tmp_path, capsys):
        cache_file = tmp_path / "optima.pkl"
        flags = ["--budget", "80", "--seed", "7", "--cache", str(cache_file)]
        assert main(self.OPT + flags) == 0
        first = capsys.readouterr().out
        assert "1 optima" in first and cache_file.exists()
        # A survey over the optima suite warm-starts from the same cache.
        assert main(
            [
                "survey",
                "--suite",
                "optima",
                "--smoke",
                "--output",
                str(tmp_path / "out.json"),
                "--cache",
                str(cache_file),
            ]
        ) == 0
        second = capsys.readouterr().out
        assert "optima" in second and "hits this run" in second

    def test_unknown_objective_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(self.OPT + ["--objective", "latency"])
        assert excinfo.value.code == 2

    def test_size_mismatch_reports_an_error(self, capsys):
        code = main(["optimize", "--guest", "torus:4x4", "--host", "mesh:4,5"])
        assert code != 0


class TestSimulateFlags:
    SIM = ["simulate", "--guest", "torus:4,4", "--host", "mesh:2,2,2,2"]

    @pytest.mark.parametrize(
        "traffic", ["neighbor-exchange", "transpose", "all-to-all-groups"]
    )
    def test_traffic_flag_selects_the_pattern(self, traffic, capsys):
        assert main(self.SIM + ["--traffic", traffic]) == 0
        out = capsys.readouterr().out
        assert traffic in out  # the pattern name heads the table title
        for column in ("strategy", "dilation", "max hops", "makespan"):
            assert column in out

    def test_unknown_traffic_is_rejected_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.SIM + ["--traffic", "psychic"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("method", ["auto", "array", "loop"])
    def test_method_flag_backends_agree(self, method, capsys):
        assert main(self.SIM + ["--method", method]) == 0
        out = capsys.readouterr().out
        assert "paper" in out and "makespan" in out

    def test_method_flag_rows_identical_across_backends(self, capsys):
        main(self.SIM + ["--method", "array"])
        array_out = capsys.readouterr().out
        main(self.SIM + ["--method", "loop"])
        loop_out = capsys.readouterr().out
        assert array_out == loop_out

    def test_unknown_method_is_rejected_by_the_parser(self):
        with pytest.raises(SystemExit) as excinfo:
            main(self.SIM + ["--method", "vectorized"])
        assert excinfo.value.code == 2

    def test_dead_extent_two_mesh_link_gives_one_table_on_both_backends(self, capsys):
        # The paper's worked-figure pair on a host with three extent-2 lines
        # and two dead links: the array path must detour exactly where the
        # loop oracle does.
        args = ["simulate", "--guest", "torus:4,6", "--host", "mesh:2,2,2,3"]
        args += ["--faults", "n0l2s1"]
        assert main(args + ["--method", "array"]) == 0
        array_out = capsys.readouterr().out
        assert main(args + ["--method", "loop"]) == 0
        assert array_out == capsys.readouterr().out
        rows = {line.split()[0]: line.split("|") for line in array_out.splitlines()[3:]}
        assert rows["paper"][4].strip() == "1.083"
        assert rows["random"][7].strip() == "14.000"

    def test_cache_flag_persists_across_invocations(self, tmp_path, capsys):
        cache_file = tmp_path / "constructions.pkl"
        assert main(self.SIM + ["--cache", str(cache_file)]) == 0
        first = capsys.readouterr().out
        assert "0 hits" in first and cache_file.exists()
        assert main(self.SIM + ["--cache", str(cache_file)]) == 0
        second = capsys.readouterr().out
        assert "hits this run" in second and "0 hits" not in second


class TestSurveyResumeFlags:
    def survey(self, tmp_path, *extra):
        return [
            "survey",
            "--smoke",
            "--output",
            str(tmp_path / "out.json"),
            "--shard-dir",
            str(tmp_path / "shards"),
            "--shard-size",
            "3",
            *extra,
        ]

    def test_resume_skips_finished_shards(self, tmp_path, capsys):
        assert main(self.survey(tmp_path)) == 0
        first = capsys.readouterr().out
        assert "resumed" not in first
        assert main(self.survey(tmp_path)) == 0
        second = capsys.readouterr().out
        assert "resumed 3 finished shard(s)" in second  # 8 scenarios / size 3

    def test_no_resume_recomputes_every_shard(self, tmp_path, capsys):
        assert main(self.survey(tmp_path)) == 0
        capsys.readouterr()
        assert main(self.survey(tmp_path, "--no-resume")) == 0
        out = capsys.readouterr().out
        assert "resumed" not in out

    def test_resumed_run_writes_identical_records(self, tmp_path, capsys):
        assert main(self.survey(tmp_path)) == 0
        capsys.readouterr()
        first = json.loads((tmp_path / "out.json").read_text())
        assert main(self.survey(tmp_path)) == 0
        second = json.loads((tmp_path / "out.json").read_text())

        def strip(payload):
            return [
                {key: value for key, value in row.items() if key != "elapsed_seconds"}
                for row in payload["records"]
            ]

        assert strip(first) == strip(second)
        assert first["count"] == second["count"] == 8

    def test_survey_exit_code_and_columns(self, tmp_path, capsys):
        assert main(self.survey(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "8 pairs (8 measured, 0 unsupported, 0 failed)" in out
        assert "strategy" in out and "max dilation" in out
