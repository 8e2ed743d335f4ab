"""Simulator and component micro-benchmarks.

Not a paper artifact — these track the performance of the substrate itself
(instructions/second of each engine, hash/CAM kernel throughput), which is
what bounds how large an evaluation sweep can get.

The engine benchmarks commit *rates* in each layer's own unit — FuncSim
``instructions_per_s`` and PipelineCPU ``cycles_per_s`` (each bare, and
monitored at IHT 8) and decode ``words_per_s`` — taken at the median
round, with the rates at the slower and faster quartile rounds as the
spread.
"""

from repro.cic.hashes import get_hash
from repro.cic.iht import InternalHashTable
from repro.isa.encoding import decode
from repro.osmodel.loader import load_process
from repro.pipeline.cpu import PipelineCPU
from repro.pipeline.funcsim import FuncSim
from repro.workloads.suite import build, workload_inputs


def _rates(benchmark, unit: str, work: int) -> dict:
    """``work`` per second at the median round and at the quartile rounds."""
    stats = benchmark.stats.stats
    return {
        unit: round(work / stats.median, 1),
        f"{unit}_q1": round(work / stats.q3, 1),
        f"{unit}_q3": round(work / stats.q1, 1),
        "rounds": stats.rounds,
    }


def _funcsim_rate(benchmark, record_bench, iht_size=None):
    program = build("sha", "tiny")
    inputs = workload_inputs("sha", "tiny")
    # The FHT is built once: a round times a cold IHT, not the hashing.
    fht = load_process(program).fht if iht_size is not None else None

    def run():
        monitor = (
            load_process(program, iht_size=iht_size, fht=fht).monitor
            if iht_size is not None
            else None
        )
        return FuncSim(program, monitor=monitor, inputs=inputs).run()

    result = benchmark(run)
    benchmark.extra_info["instructions"] = result.instructions
    record_bench(
        instructions=result.instructions,
        **_rates(benchmark, "instructions_per_s", result.instructions),
    )
    assert result.exit_code == 0


def test_funcsim_throughput(benchmark, record_bench):
    _funcsim_rate(benchmark, record_bench)


def test_funcsim_monitored_throughput(benchmark, record_bench):
    """Same run with the CIC attached (IHT 8)."""
    _funcsim_rate(benchmark, record_bench, iht_size=8)


def _pipeline_rate(benchmark, record_bench, iht_size=None):
    program = build("sha", "tiny")
    inputs = workload_inputs("sha", "tiny")
    fht = load_process(program).fht if iht_size is not None else None

    def run():
        monitor = (
            load_process(program, iht_size=iht_size, fht=fht).monitor
            if iht_size is not None
            else None
        )
        return PipelineCPU(program, monitor=monitor, inputs=inputs).run()

    result = benchmark(run)
    benchmark.extra_info["cycles"] = result.cycles
    record_bench(
        cycles=result.cycles, **_rates(benchmark, "cycles_per_s", result.cycles)
    )
    assert result.exit_code == 0


def test_pipeline_throughput(benchmark, record_bench):
    _pipeline_rate(benchmark, record_bench)


def test_pipeline_monitored_throughput(benchmark, record_bench):
    """Same run with the CIC attached (IHT 8): OS miss cycles included."""
    _pipeline_rate(benchmark, record_bench, iht_size=8)


def test_decode_throughput(benchmark, record_bench):
    program = build("rijndael", "tiny")
    words = [program.text.word_at(a) for a in program.text_addresses()]

    def decode_all():
        return [decode(word) for word in words]

    decoded = benchmark(decode_all)
    record_bench(words=len(words), **_rates(benchmark, "words_per_s", len(words)))
    assert len(decoded) == len(words)


def test_xor_hash_throughput(benchmark):
    algorithm = get_hash("xor")
    words = list(range(0, 4000))

    def fold():
        state = algorithm.initial()
        for word in words:
            state = algorithm.update(state, word)
        return algorithm.finalize(state)

    benchmark(fold)


def test_sha1_hash_throughput(benchmark):
    algorithm = get_hash("sha1")
    words = list(range(0, 400))

    def fold():
        state = algorithm.initial()
        for word in words:
            state = algorithm.update(state, word)
        return algorithm.finalize(state)

    benchmark(fold)


def test_iht_lookup_throughput(benchmark):
    iht = InternalHashTable(16)
    for index in range(16):
        iht.insert(index * 16, index * 16 + 12, index)

    def lookups():
        for index in range(16):
            iht.lookup(index * 16, index * 16 + 12, index)

    benchmark(lookups)
