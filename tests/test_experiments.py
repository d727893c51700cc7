"""Tests for the experiment framework and each paper table/figure.

These run with very small traces — they check plumbing and the *shape*
of each result (who wins, in which direction), not the committed numbers.
The one exception is :class:`TestAccuracyTablesPinned`, which pins the
accuracy tables byte for byte at small fixed parameters.
"""

import hashlib

import pytest

from repro.experiments import assoc_sweep, fig1_accuracy, fig2_tag_bits, fig3_victim
from repro.experiments import fig4_prefetch, fig5_exclusion, fig6_amb
from repro.experiments import fig7_amb_hits, sec54_pseudo, sec56_multithreaded
from repro.experiments import table1_victim
from repro.experiments.base import (
    ExperimentParams,
    ExperimentResult,
    format_result,
)

#: Tiny but warm enough to be meaningful; a couple of benchmarks only.
PARAMS = ExperimentParams(
    n_refs=20_000, warmup=8_000, suite=["tomcatv", "gcc", "compress"]
)
ACC_PARAMS = ExperimentParams(
    n_refs=20_000, warmup=0, suite=["tomcatv", "gcc", "compress"]
)


class TestFramework:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            ExperimentParams(n_refs=0)
        with pytest.raises(ValueError):
            ExperimentParams(n_refs=10, warmup=10)

    def test_quick_params(self):
        q = ExperimentParams.quick()
        assert q.warmup < q.n_refs

    def test_result_row_validation(self):
        r = ExperimentResult("x", "t", headers=["a", "b"])
        with pytest.raises(ValueError):
            r.add_row(1)

    def test_result_accessors(self):
        r = ExperimentResult("x", "t", headers=["bench", "v"])
        r.add_row("gcc", 1.5)
        assert r.column("v") == [1.5]
        assert r.cell("gcc", "v") == 1.5
        assert r.row_dict()["gcc"] == ["gcc", 1.5]

    def test_format_result_renders(self):
        r = ExperimentResult("x", "Title", headers=["bench", "v"],
                             paper_reference="ref")
        r.add_row("gcc", 1.234)
        r.notes.append("a note")
        text = format_result(r)
        assert "Title" in text and "gcc" in text and "1.23" in text
        assert "note: a note" in text


class TestAccuracyTablesPinned:
    """Figures 1-2, the associativity sweep, §5.4 and §5.6, byte for byte.

    The digests were computed from the per-reference accuracy loop
    (set-LRU cache + MCT + simulating fully-associative oracle) that
    the vectorised pass replaced, so any drift in the shared L1 pass,
    the stack-distance ground truth or the table formatting fails here.
    The sec56 digest comes from the experiment as it was before its
    repeated shared run was dropped, and the sec54 digest from the
    pseudo-associative runs' private per-reference loop, before they
    moved onto the simulator's one driver.
    """

    PARAMS = ExperimentParams(
        n_refs=6_000, warmup=0, suite=["tomcatv", "gcc", "compress", "li"]
    )
    DIGESTS = {
        "fig1": "1f5afbdfe06488442e97743a41e019ccd7bad502566120d32eb27d24e2bafdd5",
        "fig2": "f1d98320556b651b4e1478edc66ec82514eb8539b20e87f9fc294f6fd311ec59",
        "assoc": "83f2d1ad9970be93b4c2c13f25d29f41914eac06f444fae6af862d5157dc591f",
        "sec56": "de056601c1a49226d4e8d9f37ddbf56b81313a98c36b61930944208e29fe481c",
        "sec54": "5a1a071db0f563894ef15b787c4c966aeaa0c06409feeed626ce10134cd28041",
    }

    @pytest.mark.parametrize(
        "experiment",
        [fig1_accuracy, fig2_tag_bits, assoc_sweep, sec56_multithreaded, sec54_pseudo],
        ids=["fig1", "fig2", "assoc", "sec56", "sec54"],
    )
    def test_table_digest(self, experiment):
        result = experiment.run(self.PARAMS)
        text = format_result(result)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.DIGESTS[result.experiment_id], text


class TestSection5TablesPinned:
    """Table 1 and Figures 3-7, byte for byte, one digest per cell.

    The digests were computed while every buffered preset ran on the
    scalar engine's per-line objects, so any drift in the buffered
    replay of :mod:`repro.system.vector`, or in the table formatting,
    fails here.  The warmup makes every cell cross the measurement
    reset with a warm buffer.
    """

    PARAMS = ExperimentParams(
        n_refs=6_000, warmup=1_500, suite=["tomcatv", "gcc", "compress", "li"]
    )
    DIGESTS = {
        "table1.main": "b99dd4a7dd68a0a58bc1d6adb8c0e24b4419d28504991c502e12e58a9afaeaa9",
        "fig3.main": "b73a0fc7271b6a1a1067e133711e922e54a08183078d1d685be9cb1e64ccacd7",
        "fig4.accuracy": "1af28b70fbd5077e1798004ab2140e2ad3c5871ab36f3d71c0d2824fd21a2f63",
        "fig4.speedup": "978b700e78f3a76c23ba970e0bccf777ad45b7b113fedf4cf80c79d50ecdd314",
        "fig5.speedup": "53835e375c13ff8d2ef7091a95f4d91ff7a7c975d615b94b768223e04d58f92b",
        "fig5.hitrates": "6d67d4037ed353851b1c5e8fe3db1f6d9608ae31954342a8277dc649a0a752eb",
        "fig6.amb8": "70c811029e2dc07dc4e3d605ecf2f1d1463d276fe5125e4fb62849941ffe627a",
        "fig6.amb16": "9d6f4bf459d55f3690f392476abbae741e4673c15679198e8f468a9760dedc3c",
        "fig7.amb8": "4f8d28ee13b38712051fa9c93cc3a91abb1ba24243857bbaac31af0d3ff986f0",
        "fig7.amb16": "c6c22923e9e7d21734cbefe6cc3ec29a56ddd81dfbdf9a05d15839589225c9f8",
    }

    @pytest.mark.parametrize("cell", sorted(DIGESTS))
    def test_cell_digest(self, cell):
        from repro.harness.cells import VARIANTS

        experiment, variant = cell.split(".")
        text = format_result(VARIANTS[experiment][variant](self.PARAMS))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.DIGESTS[cell], text


class TestFig1:
    def test_shape_and_accuracy(self):
        res = fig1_accuracy.run(ACC_PARAMS)
        assert len(res.rows) == len(ACC_PARAMS.suite) + 1  # + AVERAGE
        avg = res.row_dict()["AVERAGE"]
        # All eight accuracy cells should be well above chance.
        assert all(v > 55.0 for v in avg[1:])


class TestFig2:
    def test_monotone_capacity_accuracy(self):
        res = fig2_tag_bits.run(ACC_PARAMS)
        caps = res.column("capacity acc %")
        assert caps == sorted(caps)  # more bits never hurt capacity acc
        # 8 bits is within 2 points of full tags (the paper's point).
        by_bits = res.row_dict()
        assert by_bits["full"][2] - by_bits[8][2] < 2.0

    def test_one_bit_is_conflict_biased(self):
        res = fig2_tag_bits.run(ACC_PARAMS)
        one = res.row_dict()[1]
        full = res.row_dict()["full"]
        assert one[1] >= full[1]      # conflict acc starts high
        assert one[2] < full[2]       # capacity acc starts low


class TestVictimExperiments:
    def test_fig3_rows_and_renorm(self):
        res = fig3_victim.run(PARAMS)
        names = [row[0] for row in res.rows]
        assert "AVERAGE" in names and "vs V cache" in names

    def test_table1_traffic_shape(self):
        res = table1_victim.run(PARAMS)
        d = res.row_dict()
        # Filtering swaps (nearly) eliminates swaps.
        assert d["filter swaps"][4] < d["V cache"][4] / 5
        # Filtering fills cuts fills by at least a third.
        assert d["filter fills"][5] < d["V cache"][5] * 0.67
        # The no-buffer row has no victim traffic at all.
        assert d["no V cache"][2] == 0.0


class TestFig4:
    def test_filtering_raises_accuracy(self):
        res = fig4_prefetch.run_accuracy(PARAMS)
        d = res.row_dict()
        unfiltered = d["next-line"][4]
        or_filtered = d["filter or-conflict"][4]
        assert or_filtered > unfiltered

    def test_or_filter_issues_fewest(self):
        res = fig4_prefetch.run_accuracy(PARAMS)
        issued = {row[0]: row[1] for row in res.rows}
        assert issued["filter or-conflict"] == min(issued.values())

    def test_speedup_table_runs(self):
        res = fig4_prefetch.run_speedup(PARAMS)
        assert res.row_dict()["AVERAGE"]


class TestFig5:
    def test_capacity_beats_mat(self):
        res = fig5_exclusion.run(PARAMS)
        avg = res.row_dict()["AVERAGE"]
        cap = avg[res.headers.index("capacity")]
        mat = avg[res.headers.index("mat")]
        assert cap >= mat

    def test_hit_rate_table(self):
        res = fig5_exclusion.run_hit_rates(PARAMS)
        d = res.row_dict()
        assert d["capacity"][3] > d["no buffer"][3]


class TestSec54:
    def test_mct_recovers_toward_two_way(self):
        res = sec54_pseudo.run(PARAMS)
        avg = res.row_dict()["AVERAGE"]
        miss_base = avg[res.headers.index("miss PAC-base")]
        miss_mct = avg[res.headers.index("miss PAC-MCT")]
        miss_2w = avg[res.headers.index("miss 2-way")]
        assert miss_mct <= miss_base
        assert abs(miss_mct - miss_2w) < abs(miss_base - miss_2w) + 1e-9


class TestFig6And7:
    def test_combined_beats_singles(self):
        res = fig6_amb.run(PARAMS, entries=8)
        avg = res.row_dict()["AVERAGE"]
        get = lambda name: avg[res.headers.index(name)]
        best_single = max(get("Vict"), get("Pref"), get("Excl"))
        best_combined = max(
            get("VictPref"), get("PrefExcl"), get("VictExcl"), get("VicPreExc")
        )
        assert best_combined > best_single

    def test_fig7_components_sum_to_total(self):
        res = fig7_amb_hits.run(PARAMS, entries=8)
        for row in res.rows:
            _, d, v, pf, ex, total, miss = row
            assert total == pytest.approx(d + v + pf + ex)
            assert miss == pytest.approx(100.0 - total)

    def test_fig7_roles_match_policies(self):
        res = fig7_amb_hits.run(PARAMS, entries=8)
        d = res.row_dict()
        assert d["Vict"][3] == 0.0       # no prefetch hits in Vict
        assert d["Pref"][2] == 0.0       # no victim hits in Pref
        assert d["Excl"][2] == 0.0 and d["Excl"][3] == 0.0
