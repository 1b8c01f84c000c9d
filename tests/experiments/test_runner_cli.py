"""Tests for the experiment registry and CLI plumbing."""

import pytest

from repro.cli import main as cli_main
from repro.experiments import experiment_ids, run_experiment


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = experiment_ids()
        paper = [f"fig{k}" for k in range(1, 18)] + ["table2"]
        assert ids[: len(paper)] == paper
        assert all(extra.startswith("ext-") for extra in ids[len(paper):])

    def test_run_by_id(self):
        result = run_experiment("fig2")
        assert result.supportable_cores_flat == 11

    def test_id_normalisation(self):
        assert run_experiment("Figure 3").cores_at_16x == 24
        assert run_experiment("fig03").cores_at_16x == 24

    @pytest.mark.parametrize("spelling,expected", [
        ("Figure 2", "fig2"),
        ("figure-2", "fig2"),
        ("fig02", "fig2"),
        ("FIG 02", "fig2"),
        ("fig10", "fig10"),
        ("fig010", "fig10"),
        ("tbl2", "table2"),
        ("Table 2", "table2"),
        ("table02", "table2"),
        ("ext_het", "ext-het"),
        ("EXT HET", "ext-het"),
        ("  ext-wall  ", "ext-wall"),
    ])
    def test_accepted_spellings(self, spelling, expected):
        from repro.experiments import resolve_experiment_id

        assert resolve_experiment_id(spelling) == expected

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_unknown_id_message_lists_valid_ids(self):
        from repro.experiments import resolve_experiment_id

        with pytest.raises(KeyError) as excinfo:
            resolve_experiment_id("fig99")
        message = str(excinfo.value)
        assert "fig99" in message
        for valid in ("fig1", "fig17", "table2", "ext-power"):
            assert valid in message

    def test_kwargs_forwarded(self):
        result = run_experiment("fig4", ratios=(2.0,))
        assert result.cores_by_parameter == {2.0: 13}


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig16" in out and "table2" in out

    def test_single_experiment(self, capsys):
        assert cli_main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "24 cores" in out

    def test_unknown_experiment(self, capsys):
        assert cli_main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_case_insensitive(self, capsys):
        assert cli_main(["TABLE2"]) == 0
        assert "DRAM" in capsys.readouterr().out

    def test_alternate_spelling(self, capsys):
        assert cli_main(["tbl2"]) == 0
        assert "DRAM" in capsys.readouterr().out

    def test_timing_flag_single_experiment(self, capsys):
        assert cli_main(["fig2", "--timing"]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("s]") and "\n[fig2: " in out

    def test_parallel_flag_parses(self):
        """--parallel N and bare --parallel both parse (all-mode args)."""
        from repro.cli import _build_parser

        args = _build_parser().parse_args(["all", "--parallel", "4"])
        assert args.parallel == 4
        args = _build_parser().parse_args(["all", "--parallel"])
        assert args.parallel == 0  # 0 = auto-detect
        args = _build_parser().parse_args(["all"])
        assert args.parallel is None  # default: serial
