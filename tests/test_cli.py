"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _serve_argv, build_parser, main
from repro.core.hypergraph import Hypergraph
from repro.io import write_hgr, write_netlist


@pytest.fixture
def hgr_file(tmp_path):
    h = Hypergraph(edges=[[1, 2], [2, 3], [3, 4], [4, 1], [1, 3]])
    path = tmp_path / "square.hgr"
    write_hgr(h, path)
    return str(path)


@pytest.fixture
def netlist_file(tmp_path):
    h = Hypergraph(edges={"a": [1, 2], "b": [2, 3]})
    path = tmp_path / "tiny.netlist"
    write_netlist(h, path)
    return str(path)


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["partition", "x.hgr"],
            ["generate", "--out", "x.hgr"],
            ["place", "x.hgr"],
            ["experiment", "table1"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.fn)

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("threshold", ["1", "0", "-2"])
    def test_threshold_below_two_rejected_at_parse_time(self, threshold, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["partition", "x.hgr", "--threshold", threshold])
        assert exc.value.code == 2
        assert "--threshold" in capsys.readouterr().err

    def test_threshold_two_parses(self):
        args = build_parser().parse_args(["partition", "x.hgr", "--threshold", "2"])
        assert args.threshold == 2

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--workers", "0"),
            ("--workers", "-1"),
            ("--max-queue", "0"),
            ("--max-inflight", "0"),
            ("--breaker-threshold", "0"),
            ("--cache-max-entries", "0"),
            ("--task-timeout", "0"),
            ("--task-timeout", "-1.5"),
            ("--task-timeout", "nan"),
            ("--memory-limit", "0"),
            ("--memory-limit", "-8"),
            ("--memory-limit", "inf"),
        ],
    )
    def test_serve_out_of_range_rejected_at_parse_time(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and flag in err

    def test_serve_workers_zero_exits_2_without_a_traceback(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--workers", "0"])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_serve_smallest_valid_values_parse(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--workers", "1",
                "--max-queue", "1",
                "--max-inflight", "1",
                "--breaker-threshold", "1",
                "--cache-max-entries", "1",
                "--task-timeout", "0.5",
                "--memory-limit", "1",
            ]
        )
        assert (args.workers, args.max_queue, args.max_inflight) == (1, 1, 1)
        assert (args.breaker_threshold, args.cache_max_entries) == (1, 1)
        assert (args.task_timeout, args.memory_limit) == (0.5, 1.0)

    def test_watchdog_passes_every_serve_knob_to_its_child(self):
        argv = [
            "serve", "--socket", "d.sock", "--workers", "3", "--task-timeout", "2.5",
            "--memory-limit", "512", "--max-queue", "9", "--max-inflight", "7",
            "--breaker-threshold", "4", "--cache-max-entries", "11",
            "--state-dir", "state", "--no-verify", "--autorestart",
        ]
        args = build_parser().parse_args(argv)
        child = build_parser().parse_args(_serve_argv(args))
        assert not child.autorestart
        assert vars(child) == {**vars(args), "autorestart": False}

    def test_serve_has_no_batch_window(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--batch-window", "0"])
        assert "unrecognized arguments: --batch-window" in capsys.readouterr().err


class TestPartitionCommand:
    def test_algorithm1(self, hgr_file, capsys):
        assert main(["partition", hgr_file, "--starts", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "cutsize" in out

    @pytest.mark.parametrize("algo", ["fm", "kl", "sa", "random", "spectral"])
    def test_baselines(self, hgr_file, algo, capsys):
        assert main(["partition", hgr_file, "--algorithm", algo]) == 0
        assert "cutsize" in capsys.readouterr().out

    def test_netlist_format(self, netlist_file, capsys):
        assert main(["partition", netlist_file]) == 0

    def test_assignment_output(self, hgr_file, tmp_path, capsys):
        out_file = tmp_path / "assign.json"
        main(["partition", hgr_file, "--assignment", str(out_file)])
        payload = json.loads(out_file.read_text())
        assert set(payload.values()) <= {"L", "R"}
        assert len(payload) == 4

    def test_parts_and_report_outputs(self, hgr_file, tmp_path):
        parts = tmp_path / "cut.part"
        report = tmp_path / "report.md"
        main(["partition", hgr_file, "--parts", str(parts), "--report", str(report)])
        assert len(parts.read_text().splitlines()) == 4
        assert report.read_text().startswith("# Partitioning report")

    def test_kway_mode(self, hgr_file, tmp_path, capsys):
        parts = tmp_path / "cut4.part"
        assert main(["partition", hgr_file, "--k", "4", "--parts", str(parts)]) == 0
        out = capsys.readouterr().out
        assert "connectivity" in out
        assert sorted(set(parts.read_text().split())) == ["0", "1", "2", "3"]

    def test_unknown_extension(self, tmp_path):
        bad = tmp_path / "file.xyz"
        bad.write_text("whatever")
        with pytest.raises(SystemExit):
            main(["partition", str(bad)])


class TestGenerateCommand:
    def test_suite_instance(self, tmp_path, capsys):
        out = tmp_path / "bd1.hgr"
        assert main(["generate", "--name", "Bd1", "--out", str(out)]) == 0
        assert out.exists()
        assert "103 vertices" in capsys.readouterr().out

    def test_random_kind(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["generate", "--kind", "random", "--modules", "20",
                     "--signals", "30", "--out", str(out)]) == 0
        assert out.exists()

    def test_difficult_kind(self, tmp_path, capsys):
        out = tmp_path / "d.netlist"
        assert main(["generate", "--kind", "difficult", "--modules", "20",
                     "--signals", "30", "--planted-cut", "1", "--out", str(out)]) == 0
        assert "planted optimum cutsize: 1" in capsys.readouterr().out

    def test_netlist_kind(self, tmp_path):
        out = tmp_path / "n.hgr"
        assert main(["generate", "--kind", "netlist", "--modules", "30",
                     "--signals", "50", "--technology", "pcb", "--out", str(out)]) == 0


class TestPlaceCommand:
    def test_place_report(self, hgr_file, tmp_path):
        report = tmp_path / "placement.md"
        main(["place", hgr_file, "--rows", "2", "--cols", "2", "--report", str(report)])
        assert "| hpwl |" in report.read_text()

    def test_place(self, hgr_file, tmp_path, capsys):
        out_file = tmp_path / "placement.json"
        assert main(["place", hgr_file, "--rows", "2", "--cols", "2",
                     "--assignment", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert len(payload) == 4
        assert "HPWL" in capsys.readouterr().out


class TestExperimentCommand:
    def test_quick_table1(self, capsys):
        assert main(["experiment", "table1", "--quick", "--seed", "1"]) == 0
        assert "technology" in capsys.readouterr().out

    def test_quick_multistart(self, capsys):
        assert main(["experiment", "multistart", "--quick"]) == 0
        assert "num_starts" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "nonsense"])


class TestPortfolioCommand:
    def test_portfolio(self, hgr_file, tmp_path, capsys):
        parts = tmp_path / "best.part"
        assert main(["portfolio", hgr_file, "--methods", "fm,algorithm1",
                     "--starts", "5", "--parts", str(parts)]) == 0
        out = capsys.readouterr().out
        assert "winner:" in out
        assert parts.exists()

    def test_portfolio_bad_method(self, hgr_file):
        with pytest.raises(ValueError):
            main(["portfolio", hgr_file, "--methods", "quantum"])


class TestLogErrors:
    """Journal and state-log failures exit with one line, no traceback."""

    def _exit_message(self, argv) -> str:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert isinstance(exc.value.code, str)
        assert "\n" not in exc.value.code
        return exc.value.code

    def test_partition_resume_of_a_missing_journal(self, hgr_file, tmp_path):
        missing = str(tmp_path / "missing.jsonl")
        message = self._exit_message(["partition", hgr_file, "--resume", missing])
        assert "cannot read journal" in message

    def test_partition_journal_in_a_missing_directory(self, hgr_file, tmp_path):
        path = str(tmp_path / "nonexistent" / "j.jsonl")
        message = self._exit_message(["partition", hgr_file, "--journal", path])
        assert "cannot create journal: [Errno 2]" in message

    def test_bench_resume_of_a_missing_journal(self, tmp_path):
        missing = str(tmp_path / "missing.jsonl")
        out = str(tmp_path / "b.json")
        message = self._exit_message(
            ["bench", "--quick", "--repeats", "1", "--resume", missing, "--out", out]
        )
        assert "cannot read journal" in message

    def test_partition_resume_of_a_bench_journal(self, hgr_file, tmp_path):
        from repro.runtime import RunJournal

        path = tmp_path / "bench.jsonl"
        RunJournal.create(path, "bench", {"seed": 0}).close()
        message = self._exit_message(["partition", hgr_file, "--resume", str(path)])
        assert "records a 'bench' run, not 'partition'" in message

    def test_serve_state_dir_that_is_a_regular_file(self, tmp_path):
        state = tmp_path / "state"
        state.write_text("not a directory")
        message = self._exit_message(
            ["serve", "--no-obs", "--port", "0", "--state-dir", str(state)]
        )
        assert message.startswith("cannot start daemon: ")
        assert "cannot create state dir" in message


#: A malformed file per input format, and the reader's complaint.
_BAD_INPUTS = {
    "bad.hgr": ("2 3\n1 x\n2 3\n", "line 2: edge line 1"),
    "bad.netlist": ("net a 1 2\nnet b\n", "bad.netlist"),
    "bad.json": ("{not json", "bad.json"),
}


class TestInputErrors:
    """A malformed or missing input file exits with one line, no traceback."""

    COMMANDS = ("partition", "place", "portfolio")

    def _exit_message(self, argv) -> str:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert isinstance(exc.value.code, str)
        assert "\n" not in exc.value.code
        return exc.value.code

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("name", sorted(_BAD_INPUTS))
    def test_malformed_file(self, command, name, tmp_path):
        text, expected = _BAD_INPUTS[name]
        path = tmp_path / name
        path.write_text(text)
        assert expected in self._exit_message([command, str(path)])

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_file(self, command, tmp_path):
        missing = str(tmp_path / "missing.hgr")
        message = self._exit_message([command, missing])
        assert "No such file" in message and "missing.hgr" in message

