"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
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
