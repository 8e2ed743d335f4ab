"""Cycle-level golden-trace backend: fork :class:`PipelineCPU` at the fault.

:mod:`repro.exec.golden` made campaigns cheap by forking the *functional*
simulator at the first corrupted fetch.  This module applies the same
design to the cycle-level 5-stage pipeline, which buys the one thing the
functional backends cannot offer: **measured cycles**.  Every classified
injection (and the recorded pristine run) carries the pipeline's actual
cycle count — OS miss penalties, multiplier busy time, squashed fetch
slots and all — so the design-space explorer can score cycle overhead
per penalty model by *measurement* instead of the (exact, but analytic)
Table-1 accounting, and tampered runs can be costed in real cycles.

The mechanics mirror the functional golden store with one twist: the
pipeline fetches *speculatively* (a wrong-path slot is fetched, latched,
and squashed), so fetch ordinals live in fetch-sequence space rather than
instruction space.  The recording run therefore keeps, per checkpoint,
the number of fetch-hook invocations at the snapshot boundary, and
delivery planning / transient ``seek`` both bisect in that space.  Until
the first transformed fetch the faulty machine replays the pristine one
cycle for cycle, so ordinals read off the recording are exact.

``HANG`` classification cannot rely on :class:`FuncSim`'s instruction
budget: the pipeline bounds cycles, not instructions.  The kernels here
run in ``until=instruction_budget`` mode instead — a run still live at
the budget boundary is a hang by the same absolute-instruction criterion
the functional backends use, and the detail string is canonical across
backends.

``tests/exec/test_pipeline_golden.py`` pins this backend differentially
against full :class:`PipelineCPU` replay — outcome, detail, latency,
*and cycle count* — on the smoke workload set and every fault model.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.errors import (
    BreakTrap,
    ConfigurationError,
    DecodingError,
    InstructionBudgetExceeded,
    MemoryAccessError,
    MonitorViolation,
    SimulationError,
)
from repro.obs import core as obs
from repro.faults.campaign import (
    CampaignContext,
    FaultResult,
    Outcome,
    WarmProcess,
    make_probe,
    split_perturbation,
)
from repro.exec.golden import (
    DEFAULT_CHECKPOINT_COUNT,
    MIN_CHECKPOINT_INTERVAL,
    _ReadRecordingMemory,
    checkpoint_interval,
)
from repro.pipeline.cpu import PipelineCPU, PipelineSnapshot


@dataclass(frozen=True, slots=True)
class PipelineCheckpoint:
    """One restore point: machine, monitor, and the fetch-stream position."""

    instructions: int
    #: Fetch-hook invocations (speculative slots included) at the boundary.
    fetches: int
    sim: PipelineSnapshot
    checker: tuple
    handler: tuple


class _PipelineFetchRecorder:
    """Fetch hook for the recording run: ordinals in fetch-sequence space."""

    __slots__ = ("ordinals", "fetches")

    def __init__(self) -> None:
        self.ordinals: dict[int, list[int]] = {}
        self.fetches = 0

    def __call__(self, address: int, word: int) -> int:
        self.fetches += 1
        self.ordinals.setdefault(address, []).append(self.fetches)
        return word


@dataclass(slots=True)
class PipelineGoldenStore:
    """Everything one worker needs to fork cycle-level injections."""

    context: CampaignContext
    warm: WarmProcess
    checkpoints: list[PipelineCheckpoint]
    #: 1-based fetch-sequence ordinals at which each address was fetched.
    fetch_ordinals: dict[int, tuple[int, ...]]
    unsafe_words: frozenset[int]
    golden_instructions: int
    #: Measured cycles of the monitored pristine run — the quantity the
    #: analytic Table-1 accounting predicts, here measured per penalty.
    golden_cycles: int
    interval: int
    #: Fetch counts of ``checkpoints``, for bisection in fetch space.
    _marks: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._marks = [checkpoint.fetches for checkpoint in self.checkpoints]

    def checkpoint_before(self, fetch_ordinal: int) -> PipelineCheckpoint:
        """The latest checkpoint strictly before fetch *fetch_ordinal*."""
        index = bisect_right(self._marks, fetch_ordinal - 1) - 1
        return self.checkpoints[max(index, 0)]

    def fetch_counts_at(self, fetches: int, addresses) -> dict[int, int]:
        """Recorded fetches of each address among the first *fetches*."""
        counts: dict[int, int] = {}
        for address in addresses:
            ordinals = self.fetch_ordinals.get(address)
            if ordinals:
                counts[address] = bisect_right(ordinals, fetches)
        return counts


def _fresh_cpu(
    context: CampaignContext, warm: WarmProcess, fetch_hook, collect_trace=False
) -> tuple[PipelineCPU, object]:
    checker = warm.fresh_checker(context)
    cpu = PipelineCPU(
        context.program,
        monitor=checker,
        fetch_hook=fetch_hook,
        inputs=context.inputs,
        decode_cache=warm.decode_cache,
        collect_trace=collect_trace,
    )
    return cpu, checker


def build_pipeline_golden_store(
    context: CampaignContext,
    warm: WarmProcess | None = None,
    interval: int | None = None,
) -> PipelineGoldenStore:
    """Record the monitored pristine run on the cycle-level pipeline.

    Costs one monitored :class:`PipelineCPU` run plus the snapshot
    copies; every injection then forks at a checkpoint, and the run's
    measured cycle count is kept as ``golden_cycles``.
    """
    warm = warm or WarmProcess.from_context(context)
    if interval is None:
        interval = checkpoint_interval(context.golden_instructions)
    if interval < 1:
        raise ConfigurationError(f"checkpoint interval must be >= 1: {interval}")
    with obs.span("pipeline_golden.record"):
        return _record_pipeline_store(context, warm, interval)


def _record_pipeline_store(
    context: CampaignContext, warm: WarmProcess, interval: int
) -> PipelineGoldenStore:
    recorder = _PipelineFetchRecorder()
    cpu, checker = _fresh_cpu(context, warm, recorder)
    memory = _ReadRecordingMemory(
        cpu.state.memory, context.program.text_start, context.program.text_end
    )
    cpu.state.memory = memory
    handler = checker.handler
    checkpoints = [
        PipelineCheckpoint(
            0, 0, cpu.snapshot(), checker.snapshot(), handler.snapshot()
        )
    ]
    mark = interval
    while True:
        result = cpu.run(until=mark)
        if result.finished:
            break
        checkpoints.append(
            PipelineCheckpoint(
                result.instructions,
                recorder.fetches,
                cpu.snapshot(),
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
            "monitored pipeline golden run diverged from the recorded reference"
        )
    fetch_counts = {
        address: len(ordinals) for address, ordinals in recorder.ordinals.items()
    }
    unsafe = set(memory.touched_words)
    for address, reads in memory.word_reads.items():
        if reads > fetch_counts.get(address, 0):
            unsafe.add(address)
    obs.count("pipeline_golden.stores_recorded")
    obs.count("pipeline_golden.checkpoints", len(checkpoints))
    return PipelineGoldenStore(
        context=context,
        warm=warm,
        checkpoints=checkpoints,
        fetch_ordinals={
            address: tuple(ordinals)
            for address, ordinals in recorder.ordinals.items()
        },
        unsafe_words=frozenset(unsafe),
        golden_instructions=result.instructions,
        golden_cycles=result.cycles,
        interval=interval,
    )


def classify_pipeline_run(
    context: CampaignContext, fault, cpu: PipelineCPU, probe
) -> FaultResult:
    """Run a prepared, injected pipeline and classify its outcome.

    The cycle-level twin of :func:`repro.faults.campaign.classify_run`:
    same taxonomy and detail conventions, but the instruction budget is
    enforced through ``run(until=...)`` (the pipeline has no instruction
    limit of its own) and every verdict carries the measured cycle count
    at the moment it was reached.
    """
    budget = context.instruction_budget
    try:
        result = cpu.run(until=budget)
        if not result.finished:
            raise InstructionBudgetExceeded(f"instruction limit {budget} exceeded")
    except MonitorViolation as error:
        return FaultResult(
            fault, Outcome.DETECTED_CIC, str(error), probe.latency(), cpu.cycles
        )
    except DecodingError as error:
        return FaultResult(
            fault,
            Outcome.DETECTED_BASELINE,
            str(error),
            probe.latency(),
            cpu.cycles,
        )
    except MemoryAccessError as error:
        return FaultResult(
            fault,
            Outcome.DETECTED_BASELINE,
            str(error),
            probe.latency(),
            cpu.cycles,
        )
    except InstructionBudgetExceeded:
        # The instruction budget, or the cycle ceiling as a secondary
        # guard; both report the canonical budget detail of every backend.
        return FaultResult(
            fault,
            Outcome.HANG,
            f"instruction limit {budget} exceeded",
            cycles=cpu.cycles,
        )
    except BreakTrap as error:
        return FaultResult(fault, Outcome.CRASHED, str(error), cycles=cpu.cycles)
    except SimulationError as error:
        # Any other simulator fault, e.g. an unknown syscall number.
        return FaultResult(fault, Outcome.CRASHED, str(error), cycles=cpu.cycles)
    if (
        result.console == context.golden_console
        and result.exit_code == context.golden_exit
    ):
        return FaultResult(fault, Outcome.BENIGN, "", cycles=result.cycles)
    return FaultResult(
        fault, Outcome.SDC, "output differs from golden run", cycles=result.cycles
    )


def run_one_pipeline(
    context: CampaignContext, fault, warm: WarmProcess | None = None
) -> FaultResult:
    """Full cycle-level replay from boot: the reference this backend is
    pinned against (and the pipeline twin of ``run_one``)."""
    warm = warm or WarmProcess.from_context(context)
    persistents, transients = split_perturbation(fault)
    for part in transients:
        reset = getattr(part, "reset", None)
        if reset is not None:
            reset()
    probe = make_probe(persistents, transients)
    cpu, _checker = _fresh_cpu(context, warm, probe)
    for part in persistents:
        part.apply_to_memory(cpu.state.memory)
    return classify_pipeline_run(context, fault, cpu, probe)


def _plan_fork(
    store: PipelineGoldenStore, fault
) -> tuple[tuple, tuple, PipelineCheckpoint] | None:
    """Pick the fork checkpoint for *fault*; ``None`` means benign-by-plan.

    ``None`` covers perturbations that are never fetched (even
    speculatively) and never read as data: the faulty run is the recorded
    pristine run, measured cycles included.
    """
    persistents, transients = split_perturbation(fault)
    unsafe = any(
        address in store.unsafe_words
        for part in persistents
        for address in part.target_addresses()
    )
    earliest: int | None = None
    for part in persistents:
        for address in part.target_addresses():
            ordinals = store.fetch_ordinals.get(address)
            if ordinals and (earliest is None or ordinals[0] < earliest):
                earliest = ordinals[0]
    for part in transients:
        occurrence = getattr(part, "occurrence", 1)
        for address in part.target_addresses():
            ordinals = store.fetch_ordinals.get(address, ())
            if len(ordinals) >= occurrence and (
                earliest is None or ordinals[occurrence - 1] < earliest
            ):
                earliest = ordinals[occurrence - 1]
    if earliest is None and not unsafe:
        return None
    seekable = all(hasattr(part, "seek") for part in transients)
    if unsafe or not seekable:
        checkpoint = store.checkpoints[0]
    else:
        checkpoint = store.checkpoint_before(earliest)
    return persistents, transients, checkpoint


def _run_fork(
    store: PipelineGoldenStore, fault, plan, cpu: PipelineCPU, checker
) -> FaultResult:
    """Execute one planned fork on a (possibly reused) machine/monitor pair.

    The restores are complete — every mutable field of the pipeline, the
    checker, and the OS handler is covered by the snapshot protocol — so
    a machine that just finished (or crashed out of) another injection is
    indistinguishable from a fresh one.
    """
    persistents, transients, checkpoint = plan
    probe = make_probe(persistents, transients)
    cpu.fetch_hook = probe
    checker.restore(checkpoint.checker)
    checker.handler.restore(checkpoint.handler)
    cpu.restore(checkpoint.sim)
    if checkpoint.fetches == 0:
        for part in transients:
            reset = getattr(part, "reset", None)
            if reset is not None:
                reset()
    else:
        counts = store.fetch_counts_at(
            checkpoint.fetches,
            [
                address
                for part in transients
                for address in part.target_addresses()
            ],
        )
        for part in transients:
            part.seek(counts)
    for part in persistents:
        part.apply_to_memory(cpu.state.memory)
    return classify_pipeline_run(store.context, fault, cpu, probe)


def run_one_pipeline_golden(store: PipelineGoldenStore, fault) -> FaultResult:
    """Classify one injection by forking the recorded pipeline at the fault.

    Produces the identical :class:`FaultResult` — outcome, detail,
    latency, and measured cycles — as :func:`run_one_pipeline`, while
    executing only the cycles after the nearest checkpoint.
    """
    plan = _plan_fork(store, fault)
    if plan is None:
        obs.count("pipeline_golden.benign_by_plan")
        return FaultResult(fault, Outcome.BENIGN, "", cycles=store.golden_cycles)
    obs.count("pipeline_golden.fork")
    cpu, checker = _fresh_cpu(store.context, store.warm, None)
    return _run_fork(store, fault, plan, cpu, checker)


def run_batch_pipeline_golden(
    store: PipelineGoldenStore, faults
) -> list[FaultResult]:
    """Classify a batch of injections on one reused machine/monitor pair.

    Semantically ``[run_one_pipeline_golden(store, f) for f in faults]``
    (pinned by the differential tests), with the per-injection
    :class:`PipelineCPU` + checker construction hoisted out of the loop.
    Unlike the functional :func:`repro.exec.golden.run_batch_golden`, no
    prefix sharing is attempted: fork ordinals live in fetch-*sequence*
    space (speculative slots included), which ``run(until=instructions)``
    cannot address, so the coarse store checkpoints are already the best
    fork points available.
    """
    cpu = checker = None
    results = []
    for fault in faults:
        plan = _plan_fork(store, fault)
        if plan is None:
            obs.count("pipeline_golden.benign_by_plan")
            results.append(
                FaultResult(fault, Outcome.BENIGN, "", cycles=store.golden_cycles)
            )
            continue
        obs.count("pipeline_golden.fork")
        if cpu is None:
            cpu, checker = _fresh_cpu(store.context, store.warm, None)
        else:
            obs.count("pipeline_golden.machine_reuse")
        results.append(_run_fork(store, fault, plan, cpu, checker))
    return results
