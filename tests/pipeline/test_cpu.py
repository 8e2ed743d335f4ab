"""PipelineCPU's predecoded stage records and the decode cache they share."""

import pickle

import pytest

from repro.asm.assembler import assemble
from repro.errors import DecodingError
from repro.exec.pipeline_golden import (
    build_pipeline_golden_store,
    run_one_pipeline,
    run_one_pipeline_golden,
)
from repro.faults.campaign import WarmProcess, build_context
from repro.faults.models import BitFlipFault
from repro.isa.encoding import decode
from repro.pipeline.cpu import PipelineCPU, StageRecord
from repro.pipeline.funcsim import DecodeCache, OpRecord

from tests.conftest import assemble_with_exit
from tests.pipeline.test_funcsim import _COUNTDOWN, _corrupt

#: Exits with a word after the final syscall: the pipeline fetches that
#: slot while decode is frozen behind the trap, and the exit squashes it.
_PAST_EXIT = """
        li $a0, 5
        li $v0, 1
        syscall
        li $v0, 10
        syscall
    after:
        addiu $a0, $a0, 1
"""

#: Opcode 63: no such instruction.
_BAD = 0xFC000000


def _result_key(result):
    return (result.cycles, result.instructions, result.exit_code, result.console)


class TestPipelineOpCache:
    def test_corrupted_valid_word_gets_its_own_record(self):
        program = assemble_with_exit(_COUNTDOWN)
        target = program.entry + 12  # addiu $t0, $t0, -1
        pristine = program.text.word_at(target)
        # Same instruction with immediate -3: the loop runs once.
        corrupted = (pristine & 0xFFFF0000) | 0xFFFD
        cache = DecodeCache()
        clean = PipelineCPU(program, decode_cache=cache).run()
        faulty = PipelineCPU(
            program, fetch_hook=_corrupt(target, corrupted), decode_cache=cache
        ).run()
        assert clean.console == "6"
        assert faulty.console == "3"
        assert isinstance(cache.stages[corrupted], StageRecord)
        assert cache.stages[corrupted] is not cache.stages[pristine]
        assert cache.stages[corrupted].instruction is cache[corrupted]
        assert cache[corrupted].imm == -3
        # Built from the same op record FuncSim executes.
        assert isinstance(cache.ops[corrupted], OpRecord)
        assert cache.stages[corrupted].sources == cache.ops[corrupted].sources

    def test_invalid_fetched_word_raises_at_id_and_is_never_cached(self):
        program = assemble_with_exit(_COUNTDOWN)
        target = program.entry + 8  # the addu inside the loop
        with pytest.raises(DecodingError) as expected:
            decode(_BAD, target)
        cache = DecodeCache()
        for _ in range(2):  # and again on the now-warm cache
            cpu = PipelineCPU(
                program, fetch_hook=_corrupt(target, _BAD), decode_cache=cache
            )
            with pytest.raises(DecodingError) as raised:
                cpu.run()
            assert str(raised.value) == str(expected.value)
            assert raised.value.address == target
            assert cpu.instructions == 2  # the two li before the bad word
            assert _BAD not in cache
            assert _BAD not in cache.ops
            assert _BAD not in cache.stages

    def test_squashed_invalid_wrong_path_slot_raises_nothing(self):
        program = assemble(_PAST_EXIT)
        slot = program.symbols["after"]
        fetched = []

        def hook(address, word):
            fetched.append(address)
            return _BAD if address == slot else word

        cache = DecodeCache()
        clean = PipelineCPU(program).run()
        result = PipelineCPU(program, fetch_hook=hook, decode_cache=cache).run()
        assert slot in fetched  # the slot was fetched...
        assert _result_key(result) == _result_key(clean)  # ...and squashed
        assert result.console == "5"
        assert _BAD not in cache
        assert _BAD not in cache.stages

    def test_restore_into_fresh_cache_continues_identically(self):
        program = assemble_with_exit(_COUNTDOWN)
        one_shot = PipelineCPU(program, collect_trace=True)
        expected = one_shot.run()
        for mark in range(expected.instructions + 1):
            paused = PipelineCPU(program, collect_trace=True)
            paused.run(until=mark)
            resumed = PipelineCPU(
                program, collect_trace=True, decode_cache=DecodeCache()
            )
            resumed.restore(pickle.loads(pickle.dumps(paused.snapshot())))
            result = resumed.run()
            assert _result_key(result) == _result_key(expected), mark
            assert [e.key for e in result.block_trace] == [
                e.key for e in expected.block_trace
            ]
            assert resumed.snapshot() == one_shot.snapshot(), mark
            assert pickle.dumps(resumed.snapshot()) == pickle.dumps(
                one_shot.snapshot()
            ), mark

    def test_pipeline_golden_store_pickles(self):
        context = build_context(assemble_with_exit(_COUNTDOWN), iht_size=2)
        warm = WarmProcess.from_context(context)
        store = build_pipeline_golden_store(context, warm, interval=4)
        fault = BitFlipFault(context.executed_addresses[3], (2,))
        before = run_one_pipeline_golden(store, fault)
        assert store.warm.decode_cache.stages  # populated by the run
        copy = pickle.loads(pickle.dumps(store))
        assert copy.warm.decode_cache.stages == {}
        assert dict(copy.warm.decode_cache) == dict(store.warm.decode_cache)
        after = run_one_pipeline_golden(copy, fault)
        full = run_one_pipeline(context, fault, warm)
        verdict = (before.outcome, before.detail, before.latency, before.cycles)
        assert (after.outcome, after.detail, after.latency, after.cycles) == verdict
        assert (full.outcome, full.detail, full.latency, full.cycles) == verdict

    def test_plain_dict_cache_rejected(self):
        # A plain dict has nowhere to keep the records beside it.
        with pytest.raises(TypeError, match="DecodeCache"):
            PipelineCPU(assemble_with_exit(_COUNTDOWN), decode_cache={})
