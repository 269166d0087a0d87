"""Unit tests for the experiments command-line interface."""

from __future__ import annotations

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_seed_is_global(self):
        args = build_parser().parse_args(["--seed", "9", "run", "table1"])
        assert args.seed == 9

    def test_all_commands_exist(self):
        parser = build_parser()
        for argv in (
            ["list"], ["run", "figure6"], ["sweep", "figure6"], ["check"],
        ):
            assert parser.parse_args(argv).command == argv[0]

    @pytest.mark.parametrize(
        "command", ["figure6", "route-bench", "all", "bench-diff", "lint", "analyze"]
    )
    def test_per_figure_aliases_are_gone(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err

    def test_scenario_commands_exist(self):
        parser = build_parser()
        assert parser.parse_args(["list"]).command == "list"
        args = parser.parse_args(["run", "figure7", "--set", "topology.nodes=128"])
        assert args.command == "run"
        assert args.scenario == "figure7"
        assert args.overrides == ["topology.nodes=128"]
        args = parser.parse_args(
            ["sweep", "figure7", "--grid", "engine=object,fastpath", "--jobs", "2"]
        )
        assert args.command == "sweep"
        assert args.grid == ["engine=object,fastpath"]
        assert args.jobs == 2

    def test_format_option(self):
        for argv in (["list"], ["run", "figure5"], ["sweep", "figure5"]):
            assert build_parser().parse_args(argv).format == "text"
        args = build_parser().parse_args(["run", "table1", "--format", "json"])
        assert args.format == "json"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "figure5", "--format", "yaml"])

    def test_engine_option_defaults_to_object(self):
        # No --engine leaves the choice to the spec, and every registered
        # default spec says "object".
        from repro.scenarios import available_scenarios

        assert build_parser().parse_args(["run", "figure6"]).engine is None
        assert all(d.defaults.engine == "object" for d in available_scenarios())

    def test_engine_option_rejects_unknown_engines(self):
        args = build_parser().parse_args(["run", "figure6", "--engine", "fastpath"])
        assert args.engine == "fastpath"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "figure6", "--engine", "gpu"])


class TestMain:
    def test_figure5_small(self, capsys):
        exit_code = main(
            [
                "run", "figure5",
                "--set", "topology.nodes=128",
                "--set", "workload.networks=1",
                "--set", "topology.links_per_node=4",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Figure 5" in output
        assert "max |error|" in output

    def test_figure7_small(self, capsys):
        exit_code = main(
            [
                "run", "figure7",
                "--set", "topology.nodes=128",
                "--set", "workload.searches=20",
                "--set", "workload.iterations=1",
                "--engine", "fastpath",
            ]
        )
        assert exit_code == 0
        assert "Figure 7" in capsys.readouterr().out

    def test_figure6_small(self, capsys):
        exit_code = main(
            ["run", "figure6", "--set", "topology.nodes=256", "--set", "workload.searches=20"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Figure 6(a)" in output and "Figure 6(b)" in output

    def test_baselines_small(self, capsys):
        exit_code = main(
            ["run", "baselines", "--set", "topology.nodes=64", "--set", "workload.searches=20"]
        )
        assert exit_code == 0
        assert "chord" in capsys.readouterr().out


class TestScenarioCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in ("figure5", "figure6", "figure7", "table1", "baselines"):
            assert name in output

    def test_list_json(self, capsys):
        import json

        assert main(["list", "--format", "json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {"figure7", "byzantine"} <= {entry["name"] for entry in entries}

    def test_run_scenario_text(self, capsys):
        exit_code = main(
            [
                "run", "figure7",
                "--set", "topology.nodes=128",
                "--set", "workload.searches=20",
                "--set", "workload.iterations=1",
            ]
        )
        assert exit_code == 0
        assert "Figure 7" in capsys.readouterr().out

    def test_run_scenario_json_and_output(self, capsys, tmp_path):
        import json

        output_path = tmp_path / "result.json"
        exit_code = main(
            [
                "--seed", "5",
                "run", "figure5",
                "--set", "topology.nodes=128",
                "--set", "workload.networks=1",
                "--format", "json",
                "--output", str(output_path),
            ]
        )
        assert exit_code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["scenario"] == "figure5"
        assert printed["spec"]["seed"] == 5
        assert json.loads(output_path.read_text())["scenario"] == "figure5"

    def test_run_engine_flag_is_spec_shorthand(self, capsys):
        import json

        exit_code = main(
            [
                "run", "figure7",
                "--set", "topology.nodes=128",
                "--set", "workload.searches=10",
                "--set", "workload.iterations=1",
                "--set", "routing.recovery=terminate",
                "--engine", "fastpath",
                "--format", "json",
            ]
        )
        assert exit_code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["engine_requested"] == "fastpath"
        assert data["engine_used"] == "fastpath"

    def test_run_unknown_scenario_fails_loudly(self):
        with pytest.raises(KeyError, match="figure99"):
            main(["run", "figure99"])

    @pytest.mark.parametrize("target", ["no/such/dir", "README.md"])
    def test_checker_path_that_is_not_python_or_a_directory_is_a_usage_error(
        self, target, capsys
    ):
        assert main(["check", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert target in captured.err

    def test_sweep_cli(self, capsys, tmp_path):
        import json

        output_path = tmp_path / "sweep.json"
        exit_code = main(
            [
                "sweep", "figure7",
                "--grid", "engine=object,fastpath",
                "--set", "topology.nodes=128",
                "--set", "workload.searches=10",
                "--set", "workload.iterations=1",
                "--jobs", "2",
                "--output", str(output_path),
            ]
        )
        assert exit_code == 0
        assert "== cell" in capsys.readouterr().out
        data = json.loads(output_path.read_text())
        assert len(data["cells"]) == 2
        engines = sorted(cell["result"]["engine_used"] for cell in data["cells"])
        assert engines == ["fastpath", "object"]

    def test_run_format_json(self, capsys):
        import json

        exit_code = main(
            [
                "run", "figure5",
                "--set", "topology.nodes=128",
                "--set", "workload.networks=1",
                "--format", "json",
            ]
        )
        assert exit_code == 0
        tables = json.loads(capsys.readouterr().out)["tables"]
        assert tables[0]["title"].startswith("Figure 5")

    def test_run_format_csv(self, capsys):
        exit_code = main(
            [
                "run", "figure7",
                "--set", "topology.nodes=128",
                "--set", "workload.searches=10",
                "--set", "workload.iterations=1",
                "--format", "csv",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert output.splitlines()[0] == "failed_nodes,constructed,ideal"
