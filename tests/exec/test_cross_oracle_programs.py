"""Cross-oracle fault tier on generated programs.

The backend differential tests pin each forking backend against its
full-replay reference on the fixed workloads.  This tier widens the
inputs to the hypothesis-generated programs of ``tests/pipeline``
(every instruction class, forward control flow, calls, loads/stores,
multiply/divide), run for one to three passes, crossed with random
persistent single-bit flips anywhere in the text, transient fetch
faults on executed words, and same-column flip pairs inside one
executed block (which the XOR checksum cannot see, so they reach the
SDC, hang and crash verdicts a single flip never does under the
monitor).  Stores are recorded with a dense checkpoint interval, so
forks start mid-run:

* cycle level: ``run_one_pipeline`` ≡ ``run_one_pipeline_golden`` ≡
  ``run_batch_pipeline_golden`` on outcome, detail, latency and cycles;
* functional: ``run_one`` ≡ ``run_one_golden`` ≡ ``run_batch_golden`` on
  outcome, detail and latency.

A fault can turn a generated program into anything — a backward loop, a
wild jump, an undecodable word, a misaligned access, a CIC mismatch —
which is exactly the space a fixed workload samples thinly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm.assembler import assemble
from repro.exec.golden import build_golden_store, run_batch_golden, run_one_golden
from repro.exec.pipeline_golden import (
    build_pipeline_golden_store,
    run_batch_pipeline_golden,
    run_one_pipeline,
    run_one_pipeline_golden,
)
from repro.faults.campaign import WarmProcess, build_context, run_one
from repro.faults.models import BitFlipFault, TransientFetchFault
from tests.conftest import examples
from tests.pipeline.test_differential import isa_programs

#: One drawn fault: (shape, word index, second index, bit, occurrence).
_faults = st.lists(
    st.tuples(
        st.sampled_from(("flip", "transient", "column")),
        st.integers(0, 1 << 16),
        st.integers(0, 1 << 16),
        st.integers(0, 31),
        st.integers(1, 3),
    ),
    min_size=1,
    max_size=6,
)


def _looped(source: str, times: int) -> str:
    """Run a generated program's body *times* times before it exits.

    The body re-initialises its registers but not its data buffer, and
    its words are fetched once per pass, so transient faults see later
    occurrences and forks land between passes.
    """
    exit_call = "        li $v0, 10\n        syscall\n"
    source += "\n"
    assert source.count(exit_call) == 1
    source = source.replace(
        "        .text\n", f"        .text\n        li $s7, {times}\n    again:\n", 1
    )
    return source.replace(
        exit_call,
        "        addiu $s7, $s7, -1\n        bgtz $s7, again\n" + exit_call,
    )


def _materialize(context, drawn):
    """Bind drawn fault shapes to the program's own addresses."""
    text = list(context.program.text_addresses())
    executed = list(context.executed_addresses)
    blocks = context.executed_blocks
    faults = []
    for shape, index, other, bit, occurrence in drawn:
        if shape == "flip":
            faults.append(BitFlipFault(text[index % len(text)], (bit,)))
        elif shape == "transient":
            address = executed[index % len(executed)]
            faults.append(TransientFetchFault(address, (bit,), occurrence=occurrence))
        else:
            start, end = blocks[index % len(blocks)]
            words = range(start, end + 4, 4)
            first = words[other % len(words)]
            second = words[(other + 1 + index) % len(words)]
            if first == second:
                faults.append(BitFlipFault(first, (bit,)))
            else:
                faults.append(
                    (BitFlipFault(first, (bit,)), BitFlipFault(second, (bit,)))
                )
    return faults


def _cycle_verdict(result):
    return (result.outcome, result.detail, result.latency, result.cycles)


def _verdict(result):
    return (result.outcome, result.detail, result.latency)


@settings(max_examples=examples(100), deadline=None)
@given(
    source=isa_programs(),
    drawn=_faults,
    iht_size=st.sampled_from((2, 8)),
    passes=st.integers(1, 3),
    # Generated programs are short: a dense checkpoint interval makes
    # the forks start past checkpoint 0, where planning and seeking act.
    interval=st.integers(1, 8),
)
def test_backends_agree_on_generated_programs(
    source, drawn, iht_size, passes, interval
):
    program = assemble(_looped(source, passes))
    context = build_context(program, iht_size=iht_size)
    faults = _materialize(context, drawn)
    warm = WarmProcess.from_context(context)

    pipeline_store = build_pipeline_golden_store(context, warm, interval)
    full = [run_one_pipeline(context, fault, warm) for fault in faults]
    forked = [run_one_pipeline_golden(pipeline_store, fault) for fault in faults]
    batched = run_batch_pipeline_golden(pipeline_store, faults)
    for fault, expected, one, batch in zip(faults, full, forked, batched):
        assert _cycle_verdict(one) == _cycle_verdict(expected), fault
        assert _cycle_verdict(batch) == _cycle_verdict(expected), fault

    store = build_golden_store(context, warm, interval)
    full = [run_one(context, fault, warm) for fault in faults]
    forked = [run_one_golden(store, fault) for fault in faults]
    batched = run_batch_golden(store, faults)
    for fault, expected, one, batch in zip(faults, full, forked, batched):
        assert _verdict(one) == _verdict(expected), fault
        assert _verdict(batch) == _verdict(expected), fault
