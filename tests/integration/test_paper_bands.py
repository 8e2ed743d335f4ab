"""Pin the headline reproduction claims of EXPERIMENTS.md at full scale.

These are the numbers the README advertises; if a change to the workloads,
the replacement policy, or the cycle model moves them out of band, this
test fails before the documentation silently goes stale.
"""

import pytest

from repro.eval.fig6_miss_rate import run_fig6
from repro.eval.table1_cycles import PAPER_AVERAGE_OVERHEAD, run_table1
from repro.eval.table2_area import run_table2
from tests.oracles import monitored_run


@pytest.fixture(scope="module")
def fig6_default():
    return run_fig6(scale="default")


@pytest.fixture(scope="module")
def table1_default():
    return run_table1(scale="default")


class TestFigure6Bands:
    def test_all_high_at_one_entry(self, fig6_default):
        for row in fig6_default.rows:
            if row.workload != "susan":  # susan's giant blocks self-hit
                assert row.miss_rates[1] > 0.25, row.workload

    def test_collapse_group_at_8(self, fig6_default):
        for name in ("dijkstra", "bitcount", "susan", "sha", "rijndael"):
            assert fig6_default.miss_rate(name, 8) < 0.12, name

    def test_persistent_group_at_16(self, fig6_default):
        assert fig6_default.miss_rate("stringsearch", 16) > 0.10
        assert fig6_default.miss_rate("blowfish", 16) > 0.10

    def test_everything_reduced_at_32(self, fig6_default):
        for row in fig6_default.rows:
            assert row.miss_rates[32] < 0.12, row.workload


class TestTable1Bands:
    def test_normalized_averages_near_paper(self, table1_default):
        """Paper: 14.7 % (CIC-8) and 7.7 % (CIC-16)."""
        average8 = table1_default.average_normalized_overhead(8)
        average16 = table1_default.average_normalized_overhead(16)
        assert average8 == pytest.approx(PAPER_AVERAGE_OVERHEAD[8], abs=4.0)
        assert average16 == pytest.approx(PAPER_AVERAGE_OVERHEAD[16], abs=3.0)

    def test_basicmath_row_matches_paper_exactly_in_band(self, table1_default):
        row = table1_default.row("basicmath")
        assert row.normalized_overhead(8) == pytest.approx(10.7, abs=2.0)

    def test_zero_rows(self, table1_default):
        for name in ("bitcount", "susan"):
            assert table1_default.row(name).normalized_overhead(8) < 1.0

    def test_monitor_adds_no_cycles_beyond_os_handling(self, table1_default):
        """Replay-built rows equal whole monitored simulations."""
        for row in table1_default.rows:
            for size in (8, 16):
                live = monitored_run(row.workload, size, "default")
                assert row.monitored_cycles[size] == live.cycles
                assert row.misses[size] == live.monitor_stats.misses
                assert live.cycles == row.base_cycles + 100 * row.misses[size]


class TestTable2Bands:
    def test_area_and_period_bands(self):
        result = run_table2()
        assert result.row(1).area_overhead == pytest.approx(2.7, abs=0.1)
        assert result.row(8).area_overhead == pytest.approx(16.5, abs=2.0)
        assert result.row(16).area_overhead == pytest.approx(28.8, abs=0.1)
        for entries in (None, 1, 8, 16):
            assert result.row(entries).report.min_period == pytest.approx(37.90)
