"""Evaluation harness tests (run at reduced scale for speed)."""

import pytest

from repro.eval.ablation_hashes import run_hash_ablation
from repro.eval.ablation_policies import run_policy_ablation
from repro.eval.fault_analysis import run_fault_analysis
from repro.eval.fig6_miss_rate import run_fig6
from repro.eval.table1_cycles import run_table1
from repro.eval.table2_area import PAPER_TABLE2, run_table2
from repro.workloads.suite import WORKLOAD_NAMES
from tests.oracles import monitored_run

WORKLOADS = ("bitcount", "stringsearch", "dijkstra")


@pytest.fixture(scope="module")
def fig6():
    return run_fig6(scale="small", workloads=WORKLOADS)


@pytest.fixture(scope="module")
def table1():
    return run_table1(scale="small", workloads=WORKLOADS)


class TestFig6:
    def test_rates_are_probabilities(self, fig6):
        for row in fig6.rows:
            for rate in row.miss_rates.values():
                assert 0.0 <= rate <= 1.0

    def test_ordering_matches_paper(self, fig6):
        assert fig6.miss_rate("stringsearch", 16) > fig6.miss_rate("bitcount", 16)
        assert fig6.miss_rate("dijkstra", 1) > fig6.miss_rate("dijkstra", 8)

    def test_table_renders(self, fig6):
        text = fig6.table().render()
        assert "Figure 6" in text
        assert "stringsearch" in text


class TestTable1:
    def test_overhead_accounting_exact(self, table1):
        """A live monitored run takes base + penalty * misses cycles, per
        the paper's model, and the replay-built row reports exactly it."""
        for row in table1.rows:
            for size in (8, 16):
                live = monitored_run(row.workload, size, "small")
                assert live.cycles == (
                    row.base_cycles + 100 * live.monitor_stats.misses
                )
                assert row.monitored_cycles[size] == live.cycles

    def test_overhead_shrinks_with_table_size(self, table1):
        for row in table1.rows:
            assert row.overhead(16) <= row.overhead(8) + 1e-9

    def test_normalized_overhead_is_miss_rate(self, table1):
        for row in table1.rows:
            rate = 100.0 * row.misses[8] / row.lookups[8]
            assert row.normalized_overhead(8) == pytest.approx(rate)

    def test_bitcount_negligible(self, table1):
        # Scale-free metric: cold misses dominate tiny runs, so assert on
        # the normalized (miss-rate) overhead like the paper's 0.0 %.
        assert table1.row("bitcount").normalized_overhead(8) < 1.0

    def test_table_renders_with_paper_columns(self, table1):
        text = table1.table().render()
        assert "paper ovhd8 %" in text
        assert "average" in text

    def test_consistency_with_fig6(self, fig6):
        """Trace replay and live monitored simulation must agree."""
        for name in WORKLOADS:
            for size in (8, 16):
                replay_rate = fig6.miss_rate(name, size)
                stats = monitored_run(name, size, "small").monitor_stats
                live_rate = stats.misses / stats.lookups
                assert live_rate == pytest.approx(replay_rate, abs=1e-12)

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_rows_equal_monitored_simulation(self, name):
        """Every workload, both IHT sizes: the replay-built row equals a
        whole monitored simulation on cycles, lookups and misses."""
        row = run_table1(scale="tiny", workloads=(name,)).row(name)
        for size in (8, 16):
            live = monitored_run(name, size, "tiny")
            assert row.monitored_cycles[size] == live.cycles
            assert row.lookups[size] == live.monitor_stats.lookups
            assert row.misses[size] == live.monitor_stats.misses


class TestTable2:
    def test_matches_paper_within_tolerance(self):
        result = run_table2()
        for entries, (_, _, paper_area, paper_overhead) in PAPER_TABLE2.items():
            row = result.row(entries)
            assert row.area_overhead == pytest.approx(paper_overhead, abs=2.0)
            assert row.period_overhead == 0.0

    def test_baseline_area_exact(self):
        result = run_table2()
        assert result.row(None).report.cell_area == pytest.approx(2_136_594, abs=1)


class TestFaultAnalysis:
    def test_single_bit_full_coverage(self):
        result = run_fault_analysis(
            workload="bitcount", scale="tiny",
            single_bit_count=25, multi_bit_count=10,
        )
        assert result.scenario("single-bit (executed code)").coverage == 1.0

    def test_same_column_escapes_xor(self):
        result = run_fault_analysis(
            workload="dijkstra", scale="tiny",
            single_bit_count=5, multi_bit_count=25,
        )
        scenario = result.scenario("2-bit, same column, same block")
        assert scenario.coverage < 1.0

    def test_default_golden_backend_equals_full(self):
        """The roster's §6.3 run forks from the golden store; replaying
        every injection from instruction zero gives the same records."""
        kwargs = dict(
            workload="dijkstra", scale="tiny",
            single_bit_count=150, multi_bit_count=60,
        )
        golden = run_fault_analysis(**kwargs)
        full = run_fault_analysis(**kwargs, backend="full")

        def records(result):
            return [
                (
                    scenario.label,
                    [
                        (r.fault, r.outcome, r.detail, r.latency)
                        for r in scenario.report.results
                    ],
                )
                for scenario in result.scenarios
            ]

        assert records(golden) == records(full)
        assert golden.table().render() == full.table().render()


class TestAblations:
    def test_policy_grid_complete(self):
        result = run_policy_ablation(
            scale="small", workloads=("bitcount", "dijkstra"), sizes=(8,)
        )
        assert result.policies == ("fifo", "lru_half", "lru_one", "random")
        for row in result.rows:
            assert len(row.rates) == 4

    def test_hash_ablation_orders_coverage(self):
        result = run_hash_ablation(
            workload="bitcount", scale="tiny", pair_count=15,
            hashes=("xor", "rotxor", "crc32"),
        )
        xor_row = result.row("xor")
        assert result.row("crc32").adversarial_coverage == 1.0
        assert result.row("rotxor").adversarial_coverage == 1.0
        assert xor_row.adversarial_coverage < 1.0
        assert result.row("crc32").fits_if_stage

    def test_sha1_flagged_as_unfit(self):
        result = run_hash_ablation(
            workload="bitcount", scale="tiny", pair_count=4, hashes=("sha1",)
        )
        assert not result.row("sha1").fits_if_stage
