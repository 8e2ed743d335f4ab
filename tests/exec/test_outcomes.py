"""One crafted fault per Outcome classification.

Each case constructs a program and a fault whose classification is forced
by the microarchitecture, not by luck: the hash-escaping cases use the XOR
checksum's structural blind spot (an even number of flips in one bit
column of one monitored block preserves the block hash), which is exactly
the §6.3 escape the paper analyses.
"""

import pytest

from repro.asm.assembler import assemble
from repro.errors import (
    BreakTrap,
    DecodingError,
    InstructionBudgetExceeded,
    SimulationError,
)
from repro.exec.pipeline_golden import classify_pipeline_run
from repro.faults import BitFlipFault, Outcome, build_context, run_one
from repro.faults.campaign import classify_run, make_probe
from repro.isa.encoding import decode
from repro.pipeline.cpu import PipelineCPU
from repro.pipeline.funcsim import FuncSim


def context_for(source: str):
    return build_context(assemble(source))


class TestDetectedCic:
    def test_single_flip_in_executed_code(self):
        context = context_for("""
main:   li $a0, 2
        li $v0, 1
        syscall
        li $v0, 10
        syscall
        """)
        # Flip an immediate bit: the word still decodes, so the CIC's
        # block-hash comparison is the first line that can catch it.
        result = run_one(context, BitFlipFault(context.program.symbols["main"], (0,)))
        assert result.outcome is Outcome.DETECTED_CIC
        assert "violation" in result.detail


class TestDetectedBaseline:
    def test_undecodable_word_is_machine_checked(self):
        context = context_for("""
main:   li $a0, 2
        li $v0, 1
        syscall
        li $v0, 10
        syscall
        """)
        main = context.program.symbols["main"]
        word = context.program.word_at(main)
        bad_bit = next(
            bit for bit in range(32) if _undecodable(word ^ (1 << bit), main)
        )
        result = run_one(context, BitFlipFault(main, (bad_bit,)))
        # Decode happens before the monitor observes the word, so the
        # invalid-opcode trap fires first: a baseline detection.
        assert result.outcome is Outcome.DETECTED_BASELINE


def _undecodable(word: int, address: int) -> bool:
    try:
        decode(word, address)
    except DecodingError:
        return True
    return False


class TestCrashed:
    def test_hash_preserving_pair_reaches_unknown_syscall(self):
        context = context_for("""
main:   li $v0, 1
        li $a0, 5
        syscall
        li $v0, 10
        syscall
        """)
        main = context.program.symbols["main"]
        # Same bit column, two words, one block: XOR hash unchanged, but
        # $v0 becomes 65 — a syscall number the OS model rejects.
        pair = (BitFlipFault(main, (6,)), BitFlipFault(main + 4, (6,)))
        result = run_one(context, pair)
        assert result.outcome is Outcome.CRASHED
        assert "unknown syscall" in result.detail


class TestHang:
    def test_hash_preserving_pair_defeats_loop_exit(self):
        context = context_for("""
main:   li $t0, 0
loop:   addi $t0, $t0, 1
        li $t1, 5
        bne $t0, $t1, loop
        li $v0, 10
        syscall
        """)
        loop = context.program.symbols["loop"]
        # Step becomes 3 and the exit value becomes 7: with $t0 stuck at
        # multiples of 3, equality needs a 2^32 wrap — far past the budget.
        pair = (BitFlipFault(loop, (1,)), BitFlipFault(loop + 4, (1,)))
        result = run_one(context, pair)
        assert result.outcome is Outcome.HANG
        assert "instruction limit" in result.detail


class _Raising:
    """A simulator stand-in whose ``run`` raises *error*."""

    cycles = 0

    def __init__(self, error):
        self.error = error

    def run(self, until=None):
        raise self.error


class TestClassifiedByType:
    """HANG means a budget exception, whatever another error's text says."""

    @pytest.fixture(scope="class")
    def context(self):
        return context_for("""
main:   li $v0, 10
        syscall
        """)

    @staticmethod
    def classify(context, error, pipeline):
        fault = BitFlipFault(context.program.symbols["main"], (0,))
        classify = classify_pipeline_run if pipeline else classify_run
        return classify(context, fault, _Raising(error), make_probe((), ()))

    @pytest.mark.parametrize("pipeline", [False, True])
    def test_budget_exception_is_hang(self, context, pipeline):
        error = InstructionBudgetExceeded("instruction limit 9 exceeded")
        result = self.classify(context, error, pipeline)
        assert result.outcome is Outcome.HANG
        # Canonical detail: the context's budget, not the raiser's text.
        assert result.detail == (
            f"instruction limit {context.instruction_budget} exceeded"
        )

    @pytest.mark.parametrize("pipeline", [False, True])
    @pytest.mark.parametrize(
        "text", ["instruction limit 9 exceeded", "cycle limit 9 exceeded"]
    )
    def test_lookalike_simulation_error_is_crash(self, context, pipeline, text):
        result = self.classify(context, SimulationError(text), pipeline)
        assert result.outcome is Outcome.CRASHED
        assert text in result.detail


class TestBreakTrap:
    """``break`` raises its own type on both engines and classifies as a
    crash through each engine's classifier."""

    SOURCE = """
main:   li $a0, 2
        break
        li $v0, 10
        syscall
    """

    @pytest.mark.parametrize("engine", [FuncSim, PipelineCPU])
    def test_engine_raises_break_trap(self, engine):
        with pytest.raises(BreakTrap, match=r"^break 0 \(pc=0x00400004"):
            engine(assemble(self.SOURCE)).run()

    @pytest.mark.parametrize(
        "engine, classify",
        [(FuncSim, classify_run), (PipelineCPU, classify_pipeline_run)],
    )
    def test_break_is_crash(self, engine, classify):
        # The context only supplies the golden reference; the simulator
        # runs the trapping program.
        context = context_for("""
main:   li $v0, 10
        syscall
        """)
        fault = BitFlipFault(context.program.symbols["main"], (0,))
        simulator = engine(assemble(self.SOURCE))
        result = classify(context, fault, simulator, make_probe((), ()))
        assert result.outcome is Outcome.CRASHED
        assert result.detail.startswith("break 0 (pc=0x00400004")


class TestSilentCorruption:
    def test_hash_preserving_pair_changes_output(self):
        context = context_for("""
main:   li $t0, 1
        li $t1, 1
        addu $a0, $t0, $t1
        li $v0, 1
        syscall
        li $v0, 10
        syscall
        """)
        main = context.program.symbols["main"]
        # Both addends become 9: prints 18 instead of 2, hash unchanged.
        pair = (BitFlipFault(main, (3,)), BitFlipFault(main + 4, (3,)))
        result = run_one(context, pair)
        assert result.outcome is Outcome.SDC
        assert context.golden_console == "2"


class TestBenign:
    def test_flip_in_never_executed_code(self):
        context = context_for("""
main:   j live
dead:   addu $s0, $s0, $s0
live:   li $v0, 10
        syscall
        """)
        result = run_one(context, BitFlipFault(context.program.symbols["dead"], (7,)))
        assert result.outcome is Outcome.BENIGN


class TestKernelPurity:
    def test_run_one_is_stateless(self):
        """The same (context, fault) pair classifies identically on repeat —
        the property the parallel engine's determinism rests on."""
        context = context_for("""
main:   li $a0, 2
        li $v0, 1
        syscall
        li $v0, 10
        syscall
        """)
        fault = BitFlipFault(context.program.symbols["main"], (0,))
        first = run_one(context, fault)
        second = run_one(context, fault)
        assert (first.outcome, first.detail) == (second.outcome, second.detail)
