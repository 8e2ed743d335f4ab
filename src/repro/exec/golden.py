"""Golden-trace differential replay: the checkpointed campaign backend.

The full backend re-executes the entire workload for every injection, even
though a fault at address *A* cannot influence anything before the first
fetch of *A* — every instruction up to that point replays the pristine
("golden") run exactly.  This backend records the golden run **once** per
worker and forks each injection at the fault instead:

1. :func:`build_golden_store` executes the *monitored* pristine run,
   pausing every ``interval`` instructions to snapshot the simulator
   (:meth:`FuncSim.snapshot`) and the monitor (CIC registers, IHT rows,
   handler counters, policy state).  The same run records, per text
   address, the instruction ordinals of its fetches, plus the set of text
   words the program ever reads as *data*.
2. :func:`run_one_golden` plans one injection: the first fetch ordinal at
   which the perturbation can corrupt the pipeline (``F``) follows
   directly from the recorded ordinals.  The run is forked from the last
   checkpoint strictly before ``F``, transient fetch counters are
   :meth:`seek`-ed to the checkpoint, and execution proceeds live through
   the shared :func:`~repro.faults.campaign.classify_run` tail.
3. A perturbation that can never deliver — targets never fetched, never
   read as data — is classified ``BENIGN`` with no simulation at all: the
   faulty run *is* the golden run.

Soundness notes
    * Checkpoints are taken at instruction boundaries; the monitor's
      mid-block ``STA``/``RHASH`` state travels with them, so forking
      inside a basic block is exact.
    * Detection latency is a *difference* of fetch ordinals, so starting
      the probe at a checkpoint leaves it unchanged.
    * A persistent fault whose target the program reads as data — or
      stores to, overwriting the boot-time patch — could diverge before
      the first fetch; such targets (recorded in ``unsafe_words``) fork
      at checkpoint 0 — the full behaviour, with the warm-cache savings
      only.
    * ``HANG`` uses the same absolute instruction budget: the restored
      simulator keeps counting from the checkpoint's instruction number.

The differential test ``tests/exec/test_golden_backend.py`` pins
``golden ≡ full`` on outcome, detail, and latency for every fault model
and every attack class.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.obs import core as obs
from repro.faults.campaign import (
    CampaignContext,
    FaultResult,
    Outcome,
    WarmProcess,
    classify_run,
    make_probe,
    split_perturbation,
)
from repro.pipeline.funcsim import FuncSim, FuncSimSnapshot
from repro.pipeline.memory import Memory

#: Aim for this many checkpoints over the golden run by default.
DEFAULT_CHECKPOINT_COUNT = 64

#: Floor on the checkpoint interval (snapshots cost memory and copies).
MIN_CHECKPOINT_INTERVAL = 32


@dataclass(frozen=True, slots=True)
class Checkpoint:
    """One restore point: the simulator and the monitor, in lock step."""

    instructions: int
    sim: FuncSimSnapshot
    checker: tuple
    handler: tuple


class _FetchRecorder:
    """Fetch hook for the recording run: ordinal list per text address."""

    __slots__ = ("ordinals", "fetches")

    def __init__(self) -> None:
        self.ordinals: dict[int, list[int]] = {}
        self.fetches = 0

    def __call__(self, address: int, word: int) -> int:
        self.fetches += 1
        self.ordinals.setdefault(address, []).append(self.fetches)
        return word


class _ReadRecordingMemory(Memory):
    """Memory that records data accesses landing inside the text segment.

    Word-read counts in excess of the fetch count, and any half/byte
    read, identify text words the program consumes as *data* — a
    persistent fault there can act before its first fetch.  Text words
    the program *stores to* are recorded too: a store between instruction
    zero and the fork point would overwrite a patch the full backend
    applied at boot, so such targets must fork at checkpoint 0.
    """

    def __init__(self, base: Memory, text_start: int, text_end: int) -> None:
        super().__init__()
        self._pages = base._pages
        self._lo = text_start
        self._hi = text_end
        self.word_reads: dict[int, int] = {}
        self.touched_words: set[int] = set()

    def read_word(self, address: int) -> int:
        if self._lo <= address < self._hi:
            self.word_reads[address] = self.word_reads.get(address, 0) + 1
        return super().read_word(address)

    def read_half(self, address: int, signed: bool = False) -> int:
        if self._lo <= address < self._hi:
            self.touched_words.add(address & ~3)
        return super().read_half(address, signed)

    def read_byte(self, address: int, signed: bool = False) -> int:
        if self._lo <= address < self._hi:
            self.touched_words.add(address & ~3)
        return super().read_byte(address, signed)

    def read_bytes(self, address: int, length: int) -> bytes:
        first = max(self._lo, address & ~3)
        last = min(self._hi, address + length)
        for word in range(first, last, 4):
            self.touched_words.add(word)
        return super().read_bytes(address, length)

    def write_word(self, address: int, value: int) -> None:
        if self._lo <= address < self._hi:
            self.touched_words.add(address)
        super().write_word(address, value)

    def write_half(self, address: int, value: int) -> None:
        if self._lo <= address < self._hi:
            self.touched_words.add(address & ~3)
        super().write_half(address, value)

    def write_byte(self, address: int, value: int) -> None:
        if self._lo <= address < self._hi:
            self.touched_words.add(address & ~3)
        super().write_byte(address, value)


@dataclass(slots=True)
class GoldenStore:
    """Everything one worker needs to fork injections at the fault."""

    context: CampaignContext
    warm: WarmProcess
    checkpoints: list[Checkpoint]
    #: 1-based instruction ordinals at which each address was fetched.
    fetch_ordinals: dict[int, tuple[int, ...]]
    #: Text words the golden run reads as data or stores to — persistent
    #: faults on these fork at checkpoint 0 (full behaviour).
    unsafe_words: frozenset[int]
    golden_instructions: int
    interval: int
    #: Instruction counts of ``checkpoints``, for bisection.
    _marks: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._marks = [checkpoint.instructions for checkpoint in self.checkpoints]

    def checkpoint_before(self, ordinal: int) -> Checkpoint:
        """The latest checkpoint strictly before fetch *ordinal* fires."""
        index = bisect_right(self._marks, ordinal - 1) - 1
        return self.checkpoints[max(index, 0)]

    def fetch_counts_at(self, instructions: int, addresses) -> dict[int, int]:
        """Golden fetches of each address in the first *instructions*."""
        counts: dict[int, int] = {}
        for address in addresses:
            ordinals = self.fetch_ordinals.get(address)
            if ordinals:
                counts[address] = bisect_right(ordinals, instructions)
        return counts


def checkpoint_interval(golden_instructions: int) -> int:
    """Default spacing: ~:data:`DEFAULT_CHECKPOINT_COUNT` checkpoints."""
    return max(
        MIN_CHECKPOINT_INTERVAL,
        golden_instructions // DEFAULT_CHECKPOINT_COUNT,
    )


def build_golden_store(
    context: CampaignContext,
    warm: WarmProcess | None = None,
    interval: int | None = None,
) -> GoldenStore:
    """Record the monitored golden run with periodic checkpoints.

    Costs roughly one monitored run plus the snapshot copies; every
    injection of the campaign then starts from a checkpoint instead of
    instruction zero.
    """
    warm = warm or WarmProcess.from_context(context)
    if interval is None:
        interval = checkpoint_interval(context.golden_instructions)
    if interval < 1:
        raise ConfigurationError(f"checkpoint interval must be >= 1: {interval}")
    with obs.span("golden.record"):
        return _record_golden_store(context, warm, interval)


def _record_golden_store(
    context: CampaignContext, warm: WarmProcess, interval: int
) -> GoldenStore:
    checker = warm.fresh_checker(context)
    recorder = _FetchRecorder()
    simulator = FuncSim(
        context.program,
        monitor=checker,
        fetch_hook=recorder,
        inputs=context.inputs,
        max_instructions=context.instruction_budget,
        decode_cache=warm.decode_cache,
    )
    memory = _ReadRecordingMemory(
        simulator.state.memory,
        context.program.text_start,
        context.program.text_end,
    )
    simulator.state.memory = memory
    handler = checker.handler
    checkpoints = [
        Checkpoint(0, simulator.snapshot(), checker.snapshot(), handler.snapshot())
    ]
    mark = interval
    while True:
        result = simulator.run(until=mark)
        if result.finished:
            break
        checkpoints.append(
            Checkpoint(
                result.instructions,
                simulator.snapshot(),
                checker.snapshot(),
                handler.snapshot(),
            )
        )
        mark += interval
    if (
        result.console != context.golden_console
        or result.exit_code != context.golden_exit
    ):  # pragma: no cover - invariant
        raise ConfigurationError(
            "monitored golden run diverged from the recorded reference"
        )
    fetch_counts = {
        address: len(ordinals) for address, ordinals in recorder.ordinals.items()
    }
    unsafe = set(memory.touched_words)
    for address, reads in memory.word_reads.items():
        if reads > fetch_counts.get(address, 0):
            unsafe.add(address)
    obs.count("golden.stores_recorded")
    obs.count("golden.checkpoints", len(checkpoints))
    return GoldenStore(
        context=context,
        warm=warm,
        checkpoints=checkpoints,
        fetch_ordinals={
            address: tuple(ordinals)
            for address, ordinals in recorder.ordinals.items()
        },
        unsafe_words=frozenset(unsafe),
        golden_instructions=result.instructions,
        interval=interval,
    )


def _delivery_ordinal(store: GoldenStore, persistents, transients) -> int | None:
    """First golden fetch ordinal at which any part corrupts the pipeline.

    ``None`` means no part can ever deliver: the faulty run replays the
    golden run to completion.  Until the returned ordinal, the faulty run
    and the golden run are identical by construction, so ordinals read off
    the golden recording are exact for the faulty run too.
    """
    earliest: int | None = None

    def consider(ordinal: int) -> None:
        nonlocal earliest
        if earliest is None or ordinal < earliest:
            earliest = ordinal

    for part in persistents:
        for address in part.target_addresses():
            ordinals = store.fetch_ordinals.get(address)
            if ordinals:
                consider(ordinals[0])
    for part in transients:
        occurrence = getattr(part, "occurrence", 1)
        for address in part.target_addresses():
            ordinals = store.fetch_ordinals.get(address, ())
            if len(ordinals) >= occurrence:
                consider(ordinals[occurrence - 1])
    return earliest


def _apply_transient_position(store, transients, fork_instructions: int) -> None:
    """Put transient fetch counters where the golden run left them.

    At *fork_instructions* the faulty run is still pristine, so the golden
    recording's per-address fetch counts are exact for it.
    """
    if fork_instructions == 0:
        for part in transients:
            reset = getattr(part, "reset", None)
            if reset is not None:
                reset()
        return
    counts = store.fetch_counts_at(
        fork_instructions,
        [address for part in transients for address in part.target_addresses()],
    )
    for part in transients:
        part.seek(counts)


def run_one_golden(store: GoldenStore, fault) -> FaultResult:
    """Classify one injection by forking the golden run at the fault.

    Produces the identical :class:`FaultResult` (outcome, detail, and
    detection latency) as ``run_one(store.context, fault)`` — asserted by
    the differential tests — while executing only the instructions after
    the nearest checkpoint.
    """
    context = store.context
    persistents, transients = split_perturbation(fault)
    unsafe = any(
        address in store.unsafe_words
        for part in persistents
        for address in part.target_addresses()
    )
    delivery = _delivery_ordinal(store, persistents, transients)
    if delivery is None and not unsafe:
        # No fetch ever delivers the corruption and no data read sees it:
        # the faulty run is the golden run, byte for byte.
        obs.count("golden.benign_free")
        return FaultResult(fault, Outcome.BENIGN, "")
    seekable = all(hasattr(part, "seek") for part in transients)
    obs.count("golden.fork")
    if unsafe or not seekable:
        obs.count("golden.fork_at_zero")
        checkpoint = store.checkpoints[0]
    else:
        checkpoint = store.checkpoint_before(delivery)
    checker = store.warm.fresh_checker(context)
    checker.restore(checkpoint.checker)
    checker.handler.restore(checkpoint.handler)
    probe = make_probe(persistents, transients)
    simulator = FuncSim(
        context.program,
        monitor=checker,
        fetch_hook=probe,
        max_instructions=context.instruction_budget,
        decode_cache=store.warm.decode_cache,
        hang_detector=context.golden_instructions,
    )
    simulator.restore(checkpoint.sim)
    _apply_transient_position(store, transients, checkpoint.instructions)
    for part in persistents:
        part.apply_to_memory(simulator.state.memory)
    return classify_run(context, fault, simulator, probe)


def run_batch_golden(store: GoldenStore, faults) -> list[FaultResult]:
    """Classify a batch of injections, amortizing the pristine prefix.

    Semantically ``[run_one_golden(store, f) for f in faults]`` — the
    differential tests pin outcome, detail, and latency per element — but
    built for throughput:

    * **Prefix sharing.**  Faults are planned (delivery ordinal, unsafe
      flag) and executed in delivery order.  One *advancer* simulator
      replays the monitored pristine run forward, jumping via the nearest
      store checkpoint whenever that is ahead of its position, and parks
      exactly one instruction before each fault's first corrupted fetch.
      Faults delivered at the same ordinal share one micro-snapshot, and
      nearby fork points reuse the advanced prefix instead of re-running
      it from the last coarse checkpoint (the dominant cost of
      :func:`run_one_golden` at small checkpoint budgets).
    * **Object reuse.**  One runner simulator and one checker serve the
      whole batch; per fault they are restored from the micro-snapshot
      (restores are complete by construction — see
      ``tests/pipeline/test_snapshot.py``), so per-injection allocation
      drops out of the hot loop.

    Soundness: until the delivery ordinal the faulty run *is* the golden
    run, so parking the fork at ``delivery - 1`` changes nothing the
    classification can observe; detection latency is a fetch-ordinal
    difference and is fork-point invariant.  Unsafe targets (text read as
    data / stored to) and non-seekable transients take the
    :func:`run_one_golden` path unchanged.
    """
    context = store.context
    results: list[FaultResult | None] = [None] * len(faults)
    planned: list[tuple[int, object, tuple, tuple, int]] = []
    for index, fault in enumerate(faults):
        persistents, transients = split_perturbation(fault)
        unsafe = any(
            address in store.unsafe_words
            for part in persistents
            for address in part.target_addresses()
        )
        delivery = _delivery_ordinal(store, persistents, transients)
        if delivery is None and not unsafe:
            obs.count("golden.benign_free")
            results[index] = FaultResult(fault, Outcome.BENIGN, "")
        elif unsafe or not all(hasattr(part, "seek") for part in transients):
            obs.count("golden.batch.fallback")
            results[index] = run_one_golden(store, fault)
        else:
            planned.append((index, fault, persistents, transients, delivery))
    if not planned:
        return results
    planned.sort(key=lambda plan: plan[4])

    advancer_checker = store.warm.fresh_checker(context)
    advancer = FuncSim(
        context.program,
        monitor=advancer_checker,
        max_instructions=context.instruction_budget,
        decode_cache=store.warm.decode_cache,
    )
    advancer_position: int | None = None  # None until first restore

    runner_checker = store.warm.fresh_checker(context)
    runner = FuncSim(
        context.program,
        monitor=runner_checker,
        max_instructions=context.instruction_budget,
        decode_cache=store.warm.decode_cache,
        hang_detector=context.golden_instructions,
    )

    micro_at: int | None = None
    micro: tuple | None = None
    for index, fault, persistents, transients, delivery in planned:
        obs.count("golden.batch.fork")
        fork = delivery - 1
        if micro_at != fork:
            checkpoint = store.checkpoint_before(delivery)
            # Prefix accounting: per-fault forking would replay from the
            # coarse checkpoint every time; the advancer replays only the
            # gap from wherever it already stands.
            naive_prefix = max(fork - checkpoint.instructions, 0)
            if advancer_position is None or advancer_position > fork:
                # First use, or a fallback run_one_golden interleaved a
                # rewind: jump back via the coarse checkpoint.
                advancer.restore(checkpoint.sim)
                advancer_checker.restore(checkpoint.checker)
                advancer_checker.handler.restore(checkpoint.handler)
                advancer_position = checkpoint.instructions
            elif checkpoint.instructions > advancer_position:
                # A coarse checkpoint is ahead of the advancer: jumping
                # beats replaying, and keeps the batch no slower than
                # per-fault forking.
                advancer.restore(checkpoint.sim)
                advancer_checker.restore(checkpoint.checker)
                advancer_checker.handler.restore(checkpoint.handler)
                advancer_position = checkpoint.instructions
            replayed = max(fork - advancer_position, 0)
            if fork > advancer_position:
                advancer.run(until=fork)
                advancer_position = fork
            obs.count("golden.batch.micro_snapshots")
            obs.count("golden.batch.prefix_replayed", replayed)
            obs.count("golden.batch.prefix_saved", naive_prefix - replayed)
            micro = (
                advancer.snapshot(),
                advancer_checker.snapshot(),
                advancer_checker.handler.snapshot(),
            )
            micro_at = fork
        else:
            obs.count("golden.batch.micro_reuse")
        probe = make_probe(persistents, transients)
        runner.fetch_hook = probe
        runner.restore(micro[0])
        runner_checker.restore(micro[1])
        runner_checker.handler.restore(micro[2])
        _apply_transient_position(store, transients, fork)
        for part in persistents:
            part.apply_to_memory(runner.state.memory)
        results[index] = classify_run(context, fault, runner, probe)
    return results
