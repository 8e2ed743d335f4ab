"""Named presets, and the eval harnesses' parity as DSE presets."""

import pytest

from repro.cic.replay import replay_trace
from repro.dse.presets import PRESETS, get_preset
from repro.errors import ConfigurationError
from repro.eval.common import baseline_run, workload_fht
from repro.osmodel.policies import get_policy


class TestPresets:
    def test_all_valid_and_named(self):
        assert {"smoke", "paper", "penalty", "policies"} <= set(PRESETS)

    def test_smoke_is_small(self):
        assert get_preset("smoke").size <= 8

    def test_paper_meets_the_sweep_floor(self):
        space = get_preset("paper")
        assert space.size >= 48
        assert len(space.workloads) >= 3

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            get_preset("exhaustive")


class TestEvalParity:
    """The refactored harnesses must reproduce their pre-DSE numbers."""

    def test_fig6_equals_direct_replay(self):
        from repro.eval.fig6_miss_rate import run_fig6

        result = run_fig6(
            scale="tiny", sizes=(4, 8), workloads=("sha", "bitcount")
        )
        for workload in ("sha", "bitcount"):
            golden = baseline_run(workload, "tiny")
            fht = workload_fht(workload, "tiny")
            for size in (4, 8):
                stats = replay_trace(
                    golden.block_trace, fht, size, get_policy("lru_half")
                )
                assert result.miss_rate(workload, size) == stats.miss_rate
            row = next(
                row for row in result.rows if row.workload == workload
            )
            assert row.lookups == len(golden.block_trace)

    def test_policy_ablation_equals_direct_replay(self):
        from repro.eval.ablation_policies import run_policy_ablation

        result = run_policy_ablation(
            scale="tiny", sizes=(8,), workloads=("sha",),
            policies=("lru_half", "fifo"),
        )
        golden = baseline_run("sha", "tiny")
        fht = workload_fht("sha", "tiny")
        for policy in ("lru_half", "fifo"):
            stats = replay_trace(golden.block_trace, fht, 8, get_policy(policy))
            assert result.rows[0].rates[(policy, 8)] == stats.miss_rate

    def test_hash_ablation_equals_direct_campaign(self):
        """Same pairs, same kernel classification as the pre-DSE loop."""
        from repro.eval.ablation_hashes import run_hash_ablation
        from repro.exec import CampaignRunner, CampaignSpec
        from repro.faults.campaign import run_one, same_column_pairs

        seed, pair_count, workload = 7, 12, "bitcount"
        result = run_hash_ablation(
            workload=workload, scale="tiny", pair_count=pair_count,
            seed=seed, hashes=("xor", "crc32"),
        )
        golden = baseline_run(workload, "tiny")
        pairs = same_column_pairs(golden.block_trace, pair_count, seed)
        for hash_name in ("xor", "crc32"):
            runner = CampaignRunner(
                CampaignSpec(
                    workload=workload, scale="tiny", iht_size=8,
                    hash_name=hash_name,
                )
            )
            report = runner.run(pairs).report()
            oracle = [run_one(runner.campaign.context, pair) for pair in pairs]
            assert [r.outcome for r in report.results] == [
                r.outcome for r in oracle
            ]
            assert result.row(hash_name).adversarial_coverage == (
                report.detection_rate
            )
