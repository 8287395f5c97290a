"""End-to-end CLI tests: argv → strategy → session → report → table.

Each test drives ``timepiece-bench`` through :func:`repro.harness.cli.main`
exactly as a shell would, asserting exit codes and printed table output for
the strategy surface (``--symmetry off|classes``, ``--jobs``, ``--delta``,
``--stats``, ``--progress``, ``--json``).
"""

import json

import pytest

from repro.core.symmetry import SYMMETRY_MODES
from repro.harness.cli import build_argument_parser, main
from repro.smt.incremental import reset_process_solver
from repro.verify import Modular, Monolithic


@pytest.fixture(autouse=True)
def _isolate_process_solver():
    reset_process_solver()
    yield
    reset_process_solver()


class TestParser:
    def test_parser_covers_all_subcommands(self):
        parser = build_argument_parser()
        for command in (
            ["table1"],
            ["table2"],
            ["benchmarks"],
            ["figure1", "--pods", "4"],
            ["internet2"],
        ):
            assert parser.parse_args(command).command == command[0]
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_argv_maps_onto_the_modular_strategy(self):
        from repro.harness.cli import _modular_strategy

        arguments = build_argument_parser().parse_args(
            [
                "figure14",
                "--symmetry",
                "classes",
                "--jobs",
                "2",
                "--stop-on-failure",
            ]
        )
        assert _modular_strategy(arguments) == Modular(
            symmetry="classes",
            parallel=2,
            stop_on_failure=True,
        )

    def test_symmetry_choices_are_the_strategy_modes(self, monkeypatch):
        import repro.harness.cli as cli

        parser = build_argument_parser()
        for mode in SYMMETRY_MODES:
            assert parser.parse_args(["figure14", "--symmetry", mode]).symmetry == mode
        with pytest.raises(SystemExit):
            parser.parse_args(["figure14", "--symmetry", "spot-check"])
        # The choices are read from the tuple, not spelled out again.
        monkeypatch.setattr(cli, "SYMMETRY_MODES", (*SYMMETRY_MODES, "probe"))
        assert build_argument_parser().parse_args(["figure14", "--symmetry", "probe"])

    def test_jobs_zero_is_sequential(self):
        from repro.harness.cli import _modular_strategy

        arguments = build_argument_parser().parse_args(["figure14", "--jobs", "0"])
        assert _modular_strategy(arguments).parallel == 1

    def test_negative_jobs_is_an_argument_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_argument_parser().parse_args(["figure14", "--jobs", "-2"])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_argv_maps_onto_the_delta_options(self):
        from repro.harness.cli import _modular_strategy

        arguments = build_argument_parser().parse_args(
            ["figure14", "--delta", "reuse", "--delta-store", "runs.json"]
        )
        assert _modular_strategy(arguments) == Modular(delta="reuse", store="runs.json")

    def test_argv_maps_onto_the_monolithic_strategy(self):
        from repro.harness.cli import _monolithic_strategy

        parser = build_argument_parser()
        arguments = parser.parse_args(["figure14", "--timeout", "9"])
        assert _monolithic_strategy(arguments) == Monolithic(timeout=9.0)
        skipped = parser.parse_args(["figure14", "--skip-monolithic"])
        assert _monolithic_strategy(skipped) is None

    def test_stop_on_failure_defaults_off(self):
        from repro.harness.cli import _modular_strategy

        arguments = build_argument_parser().parse_args(["figure14"])
        assert _modular_strategy(arguments).stop_on_failure is False

    def test_bad_symmetry_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_argument_parser().parse_args(["figure14", "--symmetry", "bogus"])

    def test_jobs_zero_means_sequential(self, capsys):
        code = main(
            ["figure14", "--policy", "reach", "--pods", "4", "--skip-monolithic", "--jobs", "0"]
        )
        assert code == 0
        assert "SpReach" in capsys.readouterr().out

    def test_invalid_benchmark_parameter_is_a_usage_error(self, capsys):
        code = main(["figure14", "--policy", "reach", "--pods", "3", "--skip-monolithic"])
        assert code == 2
        captured = capsys.readouterr()
        assert "timepiece-bench: error:" in captured.err
        assert "even pod count" in captured.err
        assert "Traceback" not in captured.err

    def test_internal_value_errors_are_not_masked_as_usage_errors(self, monkeypatch):
        import repro.harness.cli as cli_module

        def explode(results):
            raise ValueError("internal rendering bug")

        monkeypatch.setattr(cli_module, "figure14_table", explode)
        with pytest.raises(ValueError, match="internal rendering bug"):
            main(["figure14", "--policy", "reach", "--pods", "4", "--skip-monolithic"])

    def test_invalid_strategy_combination_is_a_usage_error(self, capsys):
        code = main(
            [
                "figure14",
                "--pods",
                "4",
                "--skip-monolithic",
                "--delta-store",
                "unused.json",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "timepiece-bench: error:" in captured.err
        assert 'store requires delta="reuse"' in captured.err
        assert "Traceback" not in captured.err


class TestTableCommands:
    def test_table_commands_print(self, capsys):
        assert main(["table1"]) == 0
        assert "reachability to d" in capsys.readouterr().out
        assert main(["table2"]) == 0
        assert "BlockToExternal" in capsys.readouterr().out

    def test_benchmarks_command_lists_registry(self, capsys):
        assert main(["benchmarks"]) == 0
        output = capsys.readouterr().out
        for name in ("fattree/reach", "wan/block_to_external", "ghost/reach"):
            assert name in output
        assert "alias: wan/reach" in output


class TestSweepCommands:
    @pytest.mark.parametrize("symmetry", SYMMETRY_MODES)
    def test_figure14_each_symmetry_mode(self, capsys, symmetry):
        code = main(
            [
                "figure14",
                "--policy",
                "reach",
                "--pods",
                "4",
                "--skip-monolithic",
                "--symmetry",
                symmetry,
                "--stats",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "SpReach" in output
        # --stats adds the symmetry and cache tables.
        assert "discharged" in output
        assert "tseitin_hits" in output
        assert "clauses_shipped" in output and "variables_mapped" in output
        assert "answer_hits" in output
        if symmetry != "off":
            assert symmetry in output

    def test_figure1_command(self, capsys):
        code = main(["figure1", "--pods", "4", "--skip-monolithic"])
        assert code == 0
        assert "Tp total [s]" in capsys.readouterr().out

    def test_internet2_command_runs_small_sweep(self, capsys):
        code = main(
            ["internet2", "--peers", "4", "--internal", "4", "--skip-monolithic"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "BlockToExternal" not in captured.err
        assert "external" in captured.out

    def test_progress_streams_to_stderr(self, capsys):
        code = main(
            [
                "figure14",
                "--policy",
                "reach",
                "--pods",
                "4",
                "--skip-monolithic",
                "--progress",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "strategy: modular(" in captured.err
        assert "initial: ok" in captured.err
        assert "SpReach" in captured.out

    def test_progress_streams_during_parallel_runs(self, capsys):
        code = main(
            [
                "figure14",
                "--policy",
                "reach",
                "--pods",
                "4",
                "--skip-monolithic",
                "--jobs",
                "2",
                "--progress",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "initial: ok" in captured.err
        assert "SpReach" in captured.out

    def test_progress_shows_baseline_verdicts_too(self, capsys):
        """The monolithic engine's event reaches --progress (a tiny timeout
        keeps the baseline cheap; a timed-out run still emits its event)."""
        code = main(
            [
                "figure14",
                "--policy",
                "reach",
                "--pods",
                "4",
                "--timeout",
                "0.01",
                "--progress",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "monolithic" in captured.err

    def test_json_output_carries_cache_counters(self, capsys, tmp_path):
        target = tmp_path / "bench.json"
        code = main(
            [
                "figure14",
                "--policy",
                "reach",
                "--pods",
                "4",
                "--skip-monolithic",
                "--symmetry",
                "classes",
                "--json",
                str(target),
            ]
        )
        assert code == 0
        records = json.loads(target.read_text())
        assert len(records) == 1
        assert records[0]["modular"]["verdict"] == "pass"
        assert records[0]["backend_cache"]["scopes"] >= 0  # scopes follow size, not nodes
        assert records[0]["backend_cache"]["branch_variables"] > 0
        assert records[0]["modular"]["symmetry"] == "classes"
