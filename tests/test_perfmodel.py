"""Shape tests for the performance model: the qualitative claims of the
paper's Figs. 12-16 and Tables must hold in the regenerated series."""

import math

import numpy as np
import pytest

from repro.core.config import PastisConfig
from repro.perfmodel import (
    COMPARISON_NODES,
    CORI_HASWELL,
    CORI_KNL,
    PAPER_DATASETS,
    SCALING_NODES,
    CommCostModel,
    alignment_time,
    calibrate_comm_model,
    calibrate_local_machine,
    fig12_variants,
    fig13_tools,
    fig14_strong_scaling,
    fig14_weak_scaling,
    fig15_dissection,
    fig16_component_scaling,
    metaclust,
    mmseqs_total,
    parallel_efficiency,
    pastis_components,
    pastis_total,
    table1_alignment_pct,
)


class TestWorkloads:
    def test_paper_anchor_a_nnz(self):
        # Section IV-D: Metaclust50-1M has 108M nonzeros in A
        assert PAPER_DATASETS["1M"].a_nnz == pytest.approx(108e6)

    def test_paper_anchor_s_nnz(self):
        # and 611M nonzeros in S with 25 substitutes
        assert PAPER_DATASETS["1M"].s_nnz(25) == pytest.approx(611e6, rel=0.01)

    def test_paper_anchor_alignments(self):
        ds = PAPER_DATASETS["0.5M"]
        assert ds.alignments(0) == pytest.approx(399e6)
        # the 8.7x factor at s=25
        assert ds.alignments(25) / ds.alignments(0) == pytest.approx(
            8.77, rel=0.02
        )

    def test_paper_anchor_b_nnz_weak_scaling(self):
        # 10.9 / 43.3 / 172.3 billion at 1.25 / 2.5 / 5M, s=25
        assert PAPER_DATASETS["1.25M"].b_nnz(25) == pytest.approx(10.9e9)
        assert PAPER_DATASETS["2.5M"].b_nnz(25) == pytest.approx(
            43.6e9, rel=0.02
        )
        assert PAPER_DATASETS["5M"].b_nnz(25) == pytest.approx(
            174.4e9, rel=0.02
        )

    def test_quadratic_growth(self):
        # "nonzeros in the output matrix increases roughly by a factor of
        # four when we double the number of sequences"
        r = PAPER_DATASETS["2.5M"].b_nnz(25) / PAPER_DATASETS["1.25M"].b_nnz(25)
        assert r == pytest.approx(4.0, rel=0.01)

    def test_ck_reduces_alignments_enough(self):
        ds = PAPER_DATASETS["0.5M"]
        # paper: ">90% reduction" in many cases (substitute variant)
        assert ds.alignments(25, ck=True) / ds.alignments(25) < 0.10


#: the tool-comparison datasets of Figs. 12/13 and Table I
COMPARISON_DATASETS = ("0.5M", "1M")


class TestFig12:
    @pytest.fixture(scope="class")
    def runs(self):
        return [fig12_variants(ds) for ds in COMPARISON_DATASETS]

    def test_xd_faster_than_sw(self, runs):
        for series in runs:
            for s in (0, 25):
                for ck in ("", "-CK"):
                    sw = series[f"PASTIS-SW-s{s}{ck}"]
                    xd = series[f"PASTIS-XD-s{s}{ck}"]
                    assert all(x < w for x, w in zip(xd, sw))

    def test_ck_faster(self, runs):
        for series in runs:
            for name in ("SW-s0", "SW-s25", "XD-s0", "XD-s25"):
                base = series[f"PASTIS-{name}"]
                ck = series[f"PASTIS-{name}-CK"]
                assert all(c < b for c, b in zip(ck, base))

    def test_substitutes_slower(self, runs):
        for series in runs:
            assert all(
                a > b for a, b in zip(series["PASTIS-XD-s25"],
                                      series["PASTIS-XD-s0"])
            )

    def test_runtimes_decrease_with_nodes(self, runs):
        for series in runs:
            for vals in series.values():
                assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_magnitude_matches_paper_axis(self, runs):
        # paper Fig. 12 (0.5M) axis spans ~8 to ~8081 seconds
        series = runs[0]
        assert 2000 < series["PASTIS-SW-s0"][0] < 20000
        assert series["PASTIS-XD-s0-CK"][-1] < 100


class TestFig13:
    @pytest.fixture(scope="class")
    def runs(self):
        return [fig13_tools(ds) for ds in COMPARISON_DATASETS]

    def test_mmseqs_wins_single_node(self, runs):
        for series in runs:
            assert (series["MMseqs2-default"][0]
                    < series["PASTIS-XD-s0-CK"][0])

    def test_pastis_overtakes(self, runs):
        # paper: "PASTIS-XD-s0-CK runs faster than MMseqs2 ... starting
        # around 16 nodes"; the crossover must exist and be <= 64 nodes
        for series in runs:
            pastis = series["PASTIS-XD-s0-CK"]
            mm = series["MMseqs2-default"]
            cross = [n for n, a, b in zip(COMPARISON_NODES, pastis, mm)
                     if a < b]
            assert cross and min(cross) <= 64

    def test_mmseqs_plateaus(self, runs):
        # scaling stalls: 64 -> 256 nodes improves by < 25 %
        for series in runs:
            mm = series["MMseqs2-default"]
            assert mm[-1] > 0.75 * mm[-2]

    def test_mmseqs_sensitivity_ordering(self, runs):
        for series in runs:
            assert (
                series["MMseqs2-low"][0]
                < series["MMseqs2-default"][0]
                < series["MMseqs2-high"][0]
            )

    def test_mmseqs_high_scales_better(self, runs):
        # "MMseqs2-high scales somewhat better as it is more compute-bound"
        for series in runs:
            hi = series["MMseqs2-high"]
            lo = series["MMseqs2-low"]
            assert hi[0] / hi[-1] > lo[0] / lo[-1]

    def test_last_single_node_beats_mmseqs_variants(self, runs):
        # paper: "LAST's single-node performance is better than three
        # variants of MMseqs2"
        for series in runs:
            assert series["LAST"][0] < series["MMseqs2-low"][0]
            assert math.isnan(series["LAST"][1])


class TestTable1:
    @pytest.fixture(scope="class")
    def runs(self):
        return [table1_alignment_pct(ds) for ds in COMPARISON_DATASETS]

    def test_sw_higher_than_xd(self, runs):
        for pct in runs:
            for s in (0, 25):
                sw = pct[f"PASTIS-SW-s{s}"]
                xd = pct[f"PASTIS-XD-s{s}"]
                assert all(a > b for a, b in zip(sw, xd))

    def test_ck_lowers_percentage(self, runs):
        for pct in runs:
            for name in ("SW-s0", "SW-s25", "XD-s0"):
                assert all(a < b for a, b in zip(pct[f"PASTIS-{name}-CK"],
                                                 pct[f"PASTIS-{name}"]))

    def test_percentages_valid(self, runs):
        for pct in runs:
            for vals in pct.values():
                assert all(0 <= v <= 100 for v in vals)

    def test_grows_with_dataset_size(self, runs):
        # "the percentage of time spent in alignment tends to increase
        # with increased number of sequences" (quadratic alignments vs
        # partially linear matrix work)
        p05, p1 = (pct["PASTIS-SW-s0"] for pct in runs)
        assert p1[2] >= p05[2]


class TestFig14:
    def test_strong_scaling_monotone(self):
        series = fig14_strong_scaling()
        for s, vals in series.items():
            assert all(a > b for a, b in zip(vals, vals[1:])), s

    def test_strong_scaling_ordered_by_substitutes(self):
        series = fig14_strong_scaling()
        for p_idx in range(len(SCALING_NODES)):
            col = [series[s][p_idx] for s in (0, 10, 25, 50)]
            assert col == sorted(col)

    def test_exact_scales_better_than_substitutes(self):
        # paper: "using exact k-mers exhibits better scalability than using
        # substitute k-mers up to 2K nodes"
        series = fig14_strong_scaling()
        eff0 = series[0][0] / series[0][-1]
        eff25 = series[25][0] / series[25][-1]
        assert eff0 > eff25 * 0.8  # comparable or better

    def test_weak_scaling_negative_slope(self):
        # paper: "the lines in the weak scaling plots have a negative
        # slope" at 4x node steps
        series = fig14_weak_scaling()
        for s, vals in series.items():
            assert all(a >= b for a, b in zip(vals, vals[1:])), s

    def test_parallel_efficiency_bounds(self):
        series = fig14_strong_scaling()
        eff = parallel_efficiency(series[0], SCALING_NODES)
        assert eff[0] == pytest.approx(1.0)
        assert all(0 < e <= 1.2 for e in eff)


class TestFig15:
    @pytest.fixture(scope="class")
    def diss(self):
        return fig15_dissection(substitutes=(0, 10, 25, 50))

    def test_fractions_sum_to_100(self, diss):
        for s, by_nodes in diss.items():
            for p, comps in by_nodes.items():
                assert sum(comps.values()) == pytest.approx(100.0)

    def test_wait_considerable_at_small_nodes(self, diss):
        # s=0 at 64 nodes: wait is a sizeable share
        assert diss[0][64]["wait"] > 15

    def test_wait_shrinks_with_nodes(self, diss):
        assert diss[0][2025]["wait"] < diss[0][64]["wait"]

    def test_wait_less_pronounced_with_substitutes(self, diss):
        # "this component is less pronounced when substitute k-mers are
        # used as other components take more time"
        assert diss[25][64]["wait"] < diss[0][64]["wait"]

    def test_spgemm_dominates_exact(self, diss):
        for p, comps in diss[0].items():
            assert comps["(AS)AT"] == max(comps.values())

    def test_form_s_visible_with_substitutes(self, diss):
        assert diss[25][64]["form S"] > 10
        for s in (10, 50):
            assert diss[s][64]["form S"] > 5

    def test_spgemm_share_grows_with_nodes(self, diss):
        # "with increasing number of nodes, the percentage of time spent in
        # SpGEMM increases as opposed to that of matrix formation"
        assert diss[0][2025]["(AS)AT"] > diss[0][64]["(AS)AT"]


class TestFig16:
    def test_all_components_decrease(self):
        for subs in (0, 25):
            series = fig16_component_scaling(substitutes=subs)
            for name, vals in series.items():
                assert all(a >= b for a, b in zip(vals, vals[1:])), name

    def test_spgemm_least_scalable_major_component(self):
        # the paper: "the bottleneck for scalability seems to be the
        # SpGEMM operations"
        for subs in (0, 25):
            series = fig16_component_scaling(substitutes=subs)
            spgemm_ratio = series["(AS)AT"][0] / series["(AS)AT"][-1]
            for name in ("fasta", "form A", "wait"):
                ratio = series[name][0] / max(series[name][-1], 1e-12)
                assert spgemm_ratio <= ratio + 1e-9, (subs, name)

    def test_substitutes_components_present(self):
        series = fig16_component_scaling(substitutes=25)
        for name in ("form S", "AS", "sym."):
            assert name in series


class TestModelInternals:
    def test_alignment_time_scales_linearly(self):
        ds = PAPER_DATASETS["0.5M"]
        cfg = PastisConfig(align_mode="sw")
        t1 = alignment_time(ds, CORI_HASWELL, cfg, 1)
        t4 = alignment_time(ds, CORI_HASWELL, cfg, 4)
        assert t1 / t4 == pytest.approx(4.0)

    def test_components_positive(self):
        ct = pastis_components(
            PAPER_DATASETS["2.5M"], CORI_KNL, PastisConfig(substitutes=25),
            64,
        )
        assert all(v >= 0 for v in ct.components.values())
        assert ct.total > 0

    def test_single_node_no_wait(self):
        ct = pastis_components(
            PAPER_DATASETS["0.5M"], CORI_HASWELL, PastisConfig(), 1
        )
        assert ct.components["wait"] == 0.0

    def test_mmseqs_serial_floor(self):
        ds = PAPER_DATASETS["0.5M"]
        t_huge = mmseqs_total(ds, CORI_HASWELL, 5.7, 10**6)
        assert t_huge > 10  # the serial term never parallelises

    def test_metaclust_constructor(self):
        ds = metaclust(2.5)
        assert ds.n_sequences == 2.5e6
        assert ds.name == "Metaclust50-2.5M"

    def test_calibration_returns_positive_rates(self):
        spec = calibrate_local_machine()
        assert spec.sw_cells_per_sec > 0
        assert spec.spgemm_entries_per_sec > 0
        assert spec.substitutes_per_sec > 0
        assert spec.parse_bytes_per_sec > 0


class TestCommCostModel:
    """The calibrated α–β comm model: fitted from ping-pong/allgather
    microbenchmarks, persisted in ``graph.meta["commcost"]`` and (via
    ``calibrate_local_machine``) in :class:`MachineSpec`."""

    @pytest.fixture(scope="class")
    def model(self):
        return calibrate_comm_model(backend="sim")

    def test_coefficients_positive_and_finite(self, model):
        assert model.backend == "sim"
        assert math.isfinite(model.alpha) and model.alpha >= 0
        assert math.isfinite(model.beta) and model.beta > 0

    def test_seconds_linear_in_volume(self, model):
        base = model.seconds(100, 1e6)
        assert base > 0
        assert model.seconds(200, 2e6) == pytest.approx(2 * base)

    def test_meta_dict_roundtrip(self, model):
        assert CommCostModel.from_dict(model.as_dict()) == model

    def test_memoised(self, model):
        assert calibrate_comm_model(backend="sim") is model

    def test_local_machine_spec_carries_comm_fit(self, model):
        spec = calibrate_local_machine()
        assert spec.comm_alpha == model.alpha
        assert spec.beta == model.beta
