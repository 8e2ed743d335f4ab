"""Fault campaign tests: the paper's Section 6.3 claims, made executable.

Campaigns run on the execution harness (:class:`CampaignRunner`); every
report is pinned, record by record, against the serial kernel loop
``[run_one(context, fault) for fault in faults]``.
"""

import pytest

from repro.asm.assembler import assemble
from repro.exec import CampaignRunner, CampaignSpec
from repro.faults.campaign import DETECTED, FaultCampaign, Outcome, run_one
from repro.faults.models import BitFlipFault, TransientFetchFault

SOURCE = """
main:   li $t0, 6
        li $s0, 0
loop:   addu $s0, $s0, $t0
        addi $t0, $t0, -1
        bgtz $t0, loop
        move $a0, $s0
        li $v0, 1
        syscall
        li $v0, 10
        syscall
"""


@pytest.fixture(scope="module")
def runner():
    return CampaignRunner(CampaignSpec(source=SOURCE, name="campaign-test", iht_size=4))


@pytest.fixture(scope="module")
def campaign(runner):
    return runner.campaign


def run_campaign(runner, faults):
    """The harness's report for *faults*, checked against the serial
    kernel on outcome, detail and latency of every injection."""
    report = runner.run(faults).report()
    oracle = [run_one(runner.campaign.context, fault) for fault in faults]
    assert [
        (result.outcome, result.detail, result.latency)
        for result in report.results
    ] == [(result.outcome, result.detail, result.latency) for result in oracle]
    return report


class TestGolden:
    def test_golden_captured(self, campaign):
        assert campaign.golden_console == "21"
        assert campaign.executed_addresses


class TestSingleBit:
    def test_exhaustive_single_bit_never_silent(self, runner, campaign):
        """Paper §6.3: a single bit flip in executed code is always caught —
        by the CIC, or earlier by a baseline machine check."""
        report = run_campaign(runner, campaign.exhaustive_single_bit())
        counts = report.counts()
        assert counts[Outcome.SDC] == 0
        assert counts[Outcome.BENIGN] == 0
        assert counts[Outcome.HANG] == 0
        assert report.detection_rate == 1.0

    def test_random_generator_targets_executed_code(self, campaign):
        faults = campaign.random_single_bit(50, seed=3)
        executed = set(campaign.executed_addresses)
        assert all(fault.address in executed for fault in faults)

    def test_generators_deterministic(self, campaign):
        first = campaign.random_single_bit(10, seed=9)
        second = campaign.random_single_bit(10, seed=9)
        assert first == second


class TestUnexecutedCode:
    def test_flip_in_dead_code_is_benign(self):
        program = assemble("""
main:   j live
dead:   addu $s0, $s0, $s0
live:   li $v0, 10
        syscall
        """)
        campaign = FaultCampaign(program, iht_size=4)
        dead = program.symbols["dead"]
        result = campaign.run_single(BitFlipFault(dead, (7,)))
        assert result.outcome is Outcome.BENIGN


class TestMultiBit:
    def test_same_column_pairs_can_escape_xor(self, runner, campaign):
        faults = campaign.random_multi_bit(
            30, flips=2, seed=5, same_column=True
        )
        report = run_campaign(runner, faults)
        # The XOR checksum provably cannot see these inside one block; some
        # pairs span blocks (detected) and some alter semantics (SDC).
        assert report.detection_rate < 1.0

    def test_two_bits_one_word_always_flagged_by_xor(self, runner, campaign):
        """Two flips in ONE word always change the XOR (two columns)."""
        faults = campaign.random_multi_bit(30, flips=2, seed=6)
        report = run_campaign(runner, faults)
        counts = report.counts()
        assert counts[Outcome.SDC] == 0
        assert counts[Outcome.BENIGN] == 0


class TestTransient:
    def test_transient_fetch_fault_detected(self, campaign):
        address = campaign.executed_addresses[2]
        fault = TransientFetchFault(address, (5,), occurrence=1)
        result = campaign.run_single(fault)
        assert result.outcome in DETECTED

    def test_summary_readable(self, runner, campaign):
        report = run_campaign(runner, campaign.random_single_bit(5, seed=1))
        text = report.summary()
        assert "coverage" in text
        assert "5 faults" in text
