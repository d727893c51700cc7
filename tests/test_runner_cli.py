"""Tests for the repro-experiments CLI."""

import pytest

from repro.experiments.runner import main
from repro.experiments.base import ExperimentParams
from repro.harness.cells import VARIANTS, expand_cells, run_cell


TINY = ExperimentParams(n_refs=6_000, warmup=2_000, suite=["gcc"])


class TestRegistry:
    def test_all_experiments_registered(self):
        # Nine paper tables/figures, the two measured §5.6 extensions,
        # the per-benchmark sharded cut of the Figure 3 grid, and the
        # two miss-ratio-curve subsystem figures.
        assert set(VARIANTS) == {
            "fig1", "fig2", "fig3", "table1", "fig4",
            "fig5", "sec54", "fig6", "fig7",
            "sec56", "assoc", "fig3sweep",
            "mrc", "mrc_sampled",
        }

    def test_run_experiments_by_name(self):
        results = [run_cell(spec, TINY) for spec in expand_cells(["table1"])]
        assert len(results) == 1
        assert results[0].experiment_id == "table1"

    def test_multi_result_experiments(self):
        results = [run_cell(spec, TINY) for spec in expand_cells(["fig6"])]
        assert [r.experiment_id for r in results] == ["fig6-8", "fig6-16"]


class TestCLI:
    def test_main_prints_table(self, capsys):
        rc = main(["table1", "--refs", "6000", "--warmup", "2000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Victim-cache hit rates" in out
        assert "V cache" in out

    def test_quick_flag(self, capsys):
        rc = main(["table1", "--quick"])
        assert rc == 0
        assert "table1" in capsys.readouterr().out

    def test_chart_flag(self, capsys):
        rc = main(["table1", "--quick", "--chart", "Total"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "table1: Total" in out
        assert "|" in out

    def test_chart_flag_bad_column(self, capsys):
        rc = main(["table1", "--quick", "--chart", "nonexistent"])
        assert rc == 0  # chart errors are soft


class TestUpfrontValidation:
    """Bad inputs must fail before any experiment starts (satellite)."""

    def test_bad_refs_warmup_pair_rejected_upfront(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--refs", "1000", "--warmup", "1000"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "warmup" in err
        # Nothing ran: no table on stdout.
        assert "Victim-cache" not in capsys.readouterr().out

    def test_negative_refs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--refs", "-5"])
        assert "n_refs" in capsys.readouterr().err

    def test_unknown_experiment_lists_valid_names(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig1", "fig99"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "fig99" in err
        for name in ("fig1", "table1", "sec54"):
            assert name in err

    def test_unknown_suite_bench_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--suite", "gcc,nosuch"])
        assert "nosuch" in capsys.readouterr().err

    def test_bad_inject_spec_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--inject-fault", "table1.main:explode"])
        assert "fault" in capsys.readouterr().err
