"""Functional simulator tests: architected behaviour of whole programs."""

import pickle

import pytest

from repro.errors import DecodingError, InstructionBudgetExceeded, SimulationError
from repro.asm.assembler import assemble
from repro.isa.encoding import decode
from repro.isa.instruction import Instruction
from repro.pipeline.cpu import PipelineCPU
from repro.pipeline.funcsim import DecodeCache, FuncSim, OpRecord

from tests.conftest import assemble_with_exit


def _run(body, **kwargs):
    return FuncSim(assemble_with_exit(body), **kwargs)


class TestArithmetic:
    def test_register_arithmetic(self):
        sim = _run("""
        li $t0, 21
        li $t1, 2
        mul $t2, $t0, $t1
        move $a0, $t2
        li $v0, 1
        syscall
        """)
        assert sim.run().console == "42"

    def test_wraparound(self):
        sim = _run("""
        li $t0, 0x7FFFFFFF
        addi $t0, $t0, 1
        move $a0, $t0
        li $v0, 1
        syscall
        """)
        assert sim.run().console == str(-(1 << 31))

    def test_hi_lo(self):
        sim = _run("""
        li $t0, 100000
        li $t1, 100000
        multu $t0, $t1
        mfhi $a0
        li $v0, 1
        syscall
        li $a0, ' '
        li $v0, 11
        syscall
        mflo $a0
        li $v0, 1
        syscall
        """)
        hi, lo = divmod(100000 * 100000, 1 << 32)
        result = sim.run()
        from repro.utils.bitops import to_signed32
        assert result.console == f"{hi} {to_signed32(lo)}"


class TestControlFlow:
    def test_loop_sum(self):
        sim = _run("""
        li $t0, 10
        li $s0, 0
    loop:
        addu $s0, $s0, $t0
        addi $t0, $t0, -1
        bgtz $t0, loop
        move $a0, $s0
        li $v0, 1
        syscall
        """)
        assert sim.run().console == "55"

    def test_function_call(self):
        sim = _run("""
        li $a0, 5
        jal double
        move $a0, $v0
        li $v0, 1
        syscall
        j done
    double:
        sll $v0, $a0, 1
        jr $ra
    done:
        """)
        assert sim.run().console == "10"

    def test_nested_calls_with_stack(self):
        sim = _run("""
        li $a0, 6
        jal fact
        move $a0, $v0
        li $v0, 1
        syscall
        j done
    fact:
        li $v0, 1
        blez $a0, fact_end
        addi $sp, $sp, -8
        sw $ra, 0($sp)
        sw $a0, 4($sp)
        addi $a0, $a0, -1
        jal fact
        lw $a0, 4($sp)
        lw $ra, 0($sp)
        addi $sp, $sp, 8
        mul $v0, $v0, $a0
    fact_end:
        jr $ra
    done:
        """)
        assert sim.run().console == "720"


class TestMemoryOps:
    def test_store_load_bytes_halves(self):
        sim = _run("""
        .data
    buf: .space 8
        .text
        la $t0, buf
        li $t1, 0xAB
        sb $t1, 0($t0)
        li $t1, 0x1234
        sh $t1, 2($t0)
        lbu $a0, 0($t0)
        li $v0, 1
        syscall
        li $a0, ' '
        li $v0, 11
        syscall
        lh $a0, 2($t0)
        li $v0, 1
        syscall
        """)
        assert sim.run().console == "171 4660"

    def test_sign_extending_load(self):
        sim = _run("""
        .data
    v: .byte 0xFF
        .text
        la $t0, v
        lb $a0, 0($t0)
        li $v0, 1
        syscall
        """)
        assert sim.run().console == "-1"


class TestSyscalls:
    def test_print_string(self):
        sim = _run("""
        .data
    msg: .asciiz "hi there"
        .text
        la $a0, msg
        li $v0, 4
        syscall
        """)
        assert sim.run().console == "hi there"

    def test_read_int(self):
        sim = _run("""
        li $v0, 5
        syscall
        move $a0, $v0
        li $v0, 1
        syscall
        """, inputs=[1234])
        assert sim.run().console == "1234"

    def test_exit_code(self):
        program = assemble("""
        li $a0, 7
        li $v0, 17
        syscall
        """)
        assert FuncSim(program).run().exit_code == 7

    def test_read_int_empty_queue_errors(self):
        sim = _run("""
        li $v0, 5
        syscall
        """)
        with pytest.raises(SimulationError):
            sim.run()


class TestLimitsAndHooks:
    def test_instruction_limit(self):
        program = assemble("spin: j spin")
        with pytest.raises(SimulationError, match="instruction limit"):
            FuncSim(program, max_instructions=100).run()

    def test_fetch_hook_sees_every_word(self):
        seen = []
        program = assemble_with_exit("nop\nnop")

        def hook(address, word):
            seen.append(address)
            return word

        FuncSim(program, fetch_hook=hook).run()
        assert seen[0] == program.entry
        assert len(seen) == 4  # 2 nops + li + syscall

    def test_block_trace_partitions_execution(self):
        program = assemble_with_exit("""
        li $t0, 3
    loop:
        addi $t0, $t0, -1
        bgtz $t0, loop
        """)
        result = FuncSim(program, collect_trace=True).run()
        total = sum(event.length for event in result.block_trace)
        assert total == result.instructions

    def test_trace_blocks_end_at_control_flow(self):
        from repro.isa.encoding import decode
        from repro.isa.properties import is_control_flow

        program = assemble_with_exit("""
        li $t0, 2
    loop:
        addi $t0, $t0, -1
        bgtz $t0, loop
        """)
        sim = FuncSim(program, collect_trace=True)
        result = sim.run()
        for event in result.block_trace:
            word = sim.state.memory.read_word(event.end)
            assert is_control_flow(decode(word))


#: Counts down from 3 and prints the running sum: 6 plus the exit path.
_COUNTDOWN = """
        li $t0, 3
        li $s0, 0
    loop:
        addu $s0, $s0, $t0
        addiu $t0, $t0, -1
        bgtz $t0, loop
        move $a0, $s0
        li $v0, 1
        syscall
"""


def _corrupt(address, replacement):
    """Fetch hook replacing the word fetched at *address*."""

    def hook(fetched_at, word):
        return replacement if fetched_at == address else word

    return hook


class TestOpCache:
    def test_invalid_fetched_word_raises_and_is_never_cached(self):
        program = assemble_with_exit(_COUNTDOWN)
        target = program.entry + 8  # the addu inside the loop
        bad = 0xFC000000  # opcode 63: no such instruction
        with pytest.raises(DecodingError) as expected:
            decode(bad, target)
        cache = DecodeCache()
        for _ in range(2):  # and again on the now-warm cache
            sim = FuncSim(
                program, fetch_hook=_corrupt(target, bad), decode_cache=cache
            )
            with pytest.raises(DecodingError) as raised:
                sim.run()
            assert str(raised.value) == str(expected.value)
            assert raised.value.address == target
            assert sim._executed == 2  # the two li before the bad fetch
            assert bad not in cache
            assert bad not in cache.ops

    def test_corrupted_valid_word_gets_its_own_record(self):
        program = assemble_with_exit(_COUNTDOWN)
        target = program.entry + 12  # addiu $t0, $t0, -1
        pristine = program.text.word_at(target)
        # Same instruction with immediate -3: the loop runs once.
        corrupted = (pristine & 0xFFFF0000) | 0xFFFD
        cache = DecodeCache()
        clean = FuncSim(program, decode_cache=cache).run()
        faulty = FuncSim(
            program, fetch_hook=_corrupt(target, corrupted), decode_cache=cache
        ).run()
        assert clean.console == "6"
        assert faulty.console == "3"
        assert isinstance(cache.ops[corrupted], OpRecord)
        assert cache.ops[corrupted] is not cache.ops[pristine]
        assert cache[corrupted].imm == -3

    def test_until_beyond_budget_raises_at_the_budget(self):
        sim = FuncSim(assemble("spin: j spin"), max_instructions=100)
        with pytest.raises(InstructionBudgetExceeded, match="instruction limit 100"):
            sim.run(until=500)
        assert sim._executed == 100

    def test_until_within_budget_pauses(self):
        sim = FuncSim(assemble("spin: j spin"), max_instructions=100)
        result = sim.run(until=40)
        assert not result.finished
        assert result.instructions == 40

    def test_pause_resume_equals_one_shot_on_a_shared_cache(self):
        program = assemble_with_exit(_COUNTDOWN)
        cache = DecodeCache()
        one_shot = FuncSim(program, collect_trace=True, decode_cache=cache)
        expected = one_shot.run()
        paused = FuncSim(program, collect_trace=True, decode_cache=cache)
        for mark in range(0, expected.instructions + 2, 3):
            paused.run(until=mark)
        resumed = paused.run()
        assert (resumed.cycles, resumed.instructions, resumed.console) == (
            expected.cycles,
            expected.instructions,
            expected.console,
        )
        assert [e.key for e in resumed.block_trace] == [
            e.key for e in expected.block_trace
        ]
        assert paused.snapshot() == one_shot.snapshot()

    def test_shared_cache_keeps_instruction_values_for_the_pipeline(self):
        program = assemble_with_exit(_COUNTDOWN)
        cache = DecodeCache()
        func = FuncSim(program, decode_cache=cache).run()
        assert cache.ops
        assert all(isinstance(value, Instruction) for value in cache.values())
        pipe = PipelineCPU(program, decode_cache=cache).run()
        assert (pipe.cycles, pipe.console) == (func.cycles, func.console)

    def test_pickle_keeps_instructions_and_drops_records(self):
        program = assemble_with_exit(_COUNTDOWN)
        cache = DecodeCache()
        FuncSim(program, decode_cache=cache).run()
        copy = pickle.loads(pickle.dumps(cache))
        assert isinstance(copy, DecodeCache)
        assert dict(copy) == dict(cache)
        assert copy.ops == {}
        assert FuncSim(program, decode_cache=copy).run().console == "6"

    def test_plain_dict_cache_rejected(self):
        # A plain dict has nowhere to keep the records beside it.
        with pytest.raises(TypeError, match="DecodeCache"):
            FuncSim(assemble_with_exit(_COUNTDOWN), decode_cache={})
