"""Functional instruction-set simulator with an analytical cycle model.

``FuncSim`` executes instructions one at a time against the architected
state, while a scoreboard replays the 5-stage pipeline's timing exactly.
It is the golden model: the cycle-level
:class:`~repro.pipeline.cpu.PipelineCPU` must produce the same final state,
console output, block trace, *and cycle count* — asserted by the
differential tests.

The scoreboard keeps two timelines per instruction, mirroring the stage
machine:

* ``id_t`` — the cycle the instruction is processed by the decode stage
  (leaves the IF/ID latch).  Branch operand reads, load-use interlocks,
  HI/LO interlocks and trap serialization constrain this time.
* ``issue_t`` — the cycle the instruction is consumed by EX.  The ID/EX
  latch holds an instruction until EX is free, so
  ``issue_t = max(id_t + 1, ex_free)``.

Monitoring costs (the flat 100-cycle OS handling of a hash miss) land at
``id_t`` — the ID stage is where the CIC's exception fires (Figure 4) — and
push the instruction's own issue and everything behind it.

A monitor object (usually :class:`repro.cic.checker.CodeIntegrityChecker`)
may be attached; it observes fetched words and block ends *at the ID stage,
before the instruction executes*, exactly like the pipeline.

The interpreter is predecoded.  Everything that depends only on the
fetched 32-bit word is worked out once, on the word's first fetch, into an
:class:`OpRecord`: a specialised execute handler (bound to the
:mod:`~repro.pipeline.semantics` tables and the word's register fields),
the scoreboard read mode and source registers, the destination, and the
timing and control-flow flags.  ``run()`` then does one dict lookup per
step, calls the handler, and updates the scoreboard on local integers.
Records are cached by the *fetched* word — after the fetch hook — so a
fault-corrupted word gets its own record, and an undecodable word raises
:class:`~repro.errors.DecodingError` on every fetch without ever being
cached.  The record cache lives beside the word→:class:`Instruction`
decode cache (see :class:`DecodeCache`), one per decode cache, so campaign
workers share it across every injection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple, Protocol

from repro.errors import (
    BreakTrap,
    InstructionBudgetExceeded,
    MemoryAccessError,
)
from repro.asm.program import Program
from repro.pipeline import semantics
from repro.pipeline.hazards import CycleModel
from repro.pipeline.snapshot import (
    ArchSnapshot,
    SyscallSnapshot,
    restore_arch,
    restore_syscalls,
    snapshot_arch,
    snapshot_syscalls,
)
from repro.pipeline.state import ArchState
from repro.pipeline.syscalls import SyscallHandler
from repro.pipeline.trace import BlockTrace, TraceMark, mark_trace, restore_trace
from repro.isa.encoding import decode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Mnemonic
from repro.isa.properties import (
    BRANCHES,
    CONTROL_FLOW,
    DIRECT_JUMPS,
    INDIRECT_JUMPS,
)
from repro.utils.bitops import MASK32

if TYPE_CHECKING:
    from repro.pipeline.cpu import StageRecord

FetchHook = Callable[[int, int], int]

#: ``handler(regs, state, pc)`` applies one instruction's architected
#: effect and returns the redirect target, or ``None`` to fall through.
Handler = Callable[[list, ArchState, int], "int | None"]


class Monitor(Protocol):
    """Interface the simulators expect from an attached integrity monitor."""

    def on_instruction(self, address: int, word: int) -> None:
        """Observe one fetched instruction (the IF-stage microoperations)."""

    def on_block_end(self, end_address: int) -> int:
        """Check the block ending at *end_address*; return extra OS cycles."""


@dataclass(slots=True)
class RunResult:
    """Everything a finished (or paused) simulation reports."""

    cycles: int
    instructions: int
    exit_code: int
    console: str
    block_trace: BlockTrace | None = None
    #: Populated by the monitor, if one was attached.
    monitor_stats: object | None = None
    #: False when ``run(until=k)`` paused before the program exited.
    finished: bool = True


# ---------------------------------------------------------------------------
# Op records: everything the loop needs, derived once per fetched word
# ---------------------------------------------------------------------------

#: Scoreboard read modes.  EX-stage readers wait on the load-use interlock
#: (a store lists only its base register: its data register is read in
#: MEM, where every earlier write-back has landed); ID-stage readers
#: (branches, indirect jumps) wait for the bypass to reach ID; mfhi/mflo
#: wait for HI/LO to commit.
READS_EX = 0
READS_ID = 1
READS_HILO = 2

#: Execution-unit latency classes (the cycle model supplies the values).
UNIT_ALU = 0
UNIT_MULT = 1
UNIT_DIV = 2


class OpRecord(NamedTuple):
    """The predecoded form of one instruction word."""

    #: Architected effect; ``None`` for ``syscall``, which the loop runs
    #: against the simulator's own :class:`SyscallHandler`.
    handler: Handler | None
    #: One of :data:`READS_EX`, :data:`READS_ID`, :data:`READS_HILO`.
    read_mode: int
    #: Registers the read mode checks (``$0`` never stalls, so omitted).
    sources: tuple[int, ...]
    #: Register written, or ``-1`` for none (or ``$0``).
    dest: int
    is_load: bool
    #: One of :data:`UNIT_ALU`, :data:`UNIT_MULT`, :data:`UNIT_DIV`.
    unit: int
    #: Ends a basic block (branch, jump, syscall, break).
    control_flow: bool
    #: Store or syscall: clears the armed hang detector's state table.
    side_effect: bool


class DecodeCache(dict):
    """Word→:class:`Instruction` decode cache with both engines' records.

    The mapping itself holds only :class:`Instruction` values; :attr:`ops`
    maps the same words to their :class:`OpRecord` (FuncSim's), and
    :attr:`stages` to the :class:`~repro.pipeline.cpu.StageRecord`
    :class:`~repro.pipeline.cpu.PipelineCPU` builds from those op records.
    :meth:`translate` is the one decode path behind both.  Pickling keeps
    only the instructions (records hold closures); a receiving process
    rebuilds records on first fetch.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ops: dict[int, OpRecord] = {}
        self.stages: dict[int, StageRecord] = {}

    def __reduce__(self):
        return (DecodeCache, (dict(self),))

    def translate(self, word: int, address: int) -> OpRecord:
        """First fetch of *word*: decode it and cache its op record.

        An undecodable word raises :class:`~repro.errors.DecodingError`
        (reporting *address*) and leaves no entry behind.
        """
        instruction = self.get(word)
        if instruction is None:
            instruction = decode(word, address)
            self[word] = instruction
        record = op_record(instruction)
        self.ops[word] = record
        return record


def _nop(regs, state, pc):
    return None


def _alu_handler(instruction: Instruction, form: str, fn) -> Handler:
    dest = instruction.destination_register()
    if dest is None:
        return _nop
    s, t = instruction.rs, instruction.rt
    if form is semantics.REG_REG:

        def handler(regs, state, pc):
            regs[dest] = fn(regs[s], regs[t])

    elif form is semantics.REG_IMM:
        imm = instruction.imm

        def handler(regs, state, pc):
            regs[dest] = fn(regs[s], imm)

    elif form is semantics.SHIFT_IMM:
        shamt = instruction.shamt

        def handler(regs, state, pc):
            regs[dest] = fn(regs[t], shamt)

    else:

        def handler(regs, state, pc):
            regs[dest] = fn(regs[t], regs[s])

    return handler


def _load_handler(instruction: Instruction) -> Handler:
    # A load into $0 still performs its (possibly faulting) read.
    load = semantics.LOADS[instruction.mnemonic]
    address = semantics.effective_address
    s, dest, imm = instruction.rs, instruction.rt, instruction.imm

    def handler(regs, state, pc):
        value = load(state.memory, address(regs[s], imm))
        if dest:
            regs[dest] = value

    return handler


def _store_handler(instruction: Instruction) -> Handler:
    store = semantics.STORES[instruction.mnemonic]
    address = semantics.effective_address
    s, t, imm = instruction.rs, instruction.rt, instruction.imm

    def handler(regs, state, pc):
        store(state.memory, address(regs[s], imm), regs[t])

    return handler


def _control_handler(instruction: Instruction) -> Handler:
    m = instruction.mnemonic
    s, t = instruction.rs, instruction.rt
    link = semantics.link_value
    if m in BRANCHES:
        taken = semantics.BRANCH_CONDITIONS[m]
        branch = semantics.branch_target
        imm = instruction.imm

        def handler(regs, state, pc):
            if taken(regs[s], regs[t]):
                return branch(pc, imm)

    elif m in DIRECT_JUMPS:
        jump = semantics.jump_target
        target = instruction.target
        if m is Mnemonic.JAL:

            def handler(regs, state, pc):
                regs[31] = link(pc)
                return jump(pc, target)

        else:

            def handler(regs, state, pc):
                return jump(pc, target)

    elif m is Mnemonic.JALR and instruction.rd:
        rd = instruction.rd

        def handler(regs, state, pc):
            target = regs[s]
            regs[rd] = link(pc)
            return target

    else:  # jr, or jalr linking into $0

        def handler(regs, state, pc):
            return regs[s]

    return handler


def _handler(instruction: Instruction) -> Handler | None:
    """The specialised execute handler of one decoded instruction."""
    m = instruction.mnemonic
    alu = semantics.ALU_OPS.get(m)
    if alu is not None:
        return _alu_handler(instruction, *alu)
    if instruction.is_load():
        return _load_handler(instruction)
    if instruction.is_store():
        return _store_handler(instruction)
    if m in BRANCHES or m in DIRECT_JUMPS or m in INDIRECT_JUMPS:
        return _control_handler(instruction)
    s, t = instruction.rs, instruction.rt
    muldiv = semantics.MULDIV_OPS.get(m)
    if muldiv is not None:

        def handler(regs, state, pc):
            state.hi, state.lo = muldiv(regs[s], regs[t])

        return handler
    dest = instruction.destination_register()
    if m is Mnemonic.MFHI or m is Mnemonic.MFLO:
        if dest is None:
            return _nop
        if m is Mnemonic.MFHI:

            def handler(regs, state, pc):
                regs[dest] = state.hi

        else:

            def handler(regs, state, pc):
                regs[dest] = state.lo

        return handler
    if m is Mnemonic.MTHI:

        def handler(regs, state, pc):
            state.hi = regs[s]

        return handler
    if m is Mnemonic.MTLO:

        def handler(regs, state, pc):
            state.lo = regs[s]

        return handler
    if m is Mnemonic.BREAK:
        message = f"break {instruction.code}"

        def handler(regs, state, pc):
            raise BreakTrap(message, pc=pc)

        return handler
    if m is Mnemonic.SYSCALL:
        return None
    # A decoder/handler mismatch is a simulator bug, not a machine check.
    raise NotImplementedError(f"no execute handler for {m}")


def op_record(instruction: Instruction) -> OpRecord:
    """Predecode *instruction* into the record ``FuncSim.run`` executes."""
    m = instruction.mnemonic
    if m in BRANCHES or m in INDIRECT_JUMPS:
        read_mode = READS_ID
        sources = instruction.source_registers()
    elif m is Mnemonic.MFHI or m is Mnemonic.MFLO:
        read_mode = READS_HILO
        sources = ()
    elif instruction.is_store():
        read_mode = READS_EX
        sources = (instruction.rs,)
    else:
        read_mode = READS_EX
        sources = instruction.source_registers()
    dest = instruction.destination_register()
    if m is Mnemonic.MULT or m is Mnemonic.MULTU:
        unit = UNIT_MULT
    elif m is Mnemonic.DIV or m is Mnemonic.DIVU:
        unit = UNIT_DIV
    else:
        unit = UNIT_ALU
    return OpRecord(
        handler=_handler(instruction),
        read_mode=read_mode,
        sources=tuple(source for source in sources if source),
        dest=-1 if dest is None else dest,
        is_load=instruction.is_load(),
        unit=unit,
        control_flow=m in CONTROL_FLOW,
        side_effect=m is Mnemonic.SYSCALL or instruction.is_store(),
    )


# ---------------------------------------------------------------------------
# Scoreboard and snapshots
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _Scoreboard:
    """Dual-timeline (ID / issue) model of the 5-stage pipeline.

    ``FuncSim.run`` advances these registers on local integers and writes
    them back here whenever it returns or raises, so snapshots see the
    same values at every instruction boundary.

    Per-register constraint times:

    * ``avail_id[r]`` — earliest ``id_t`` of a consumer that reads ``r`` in
      ID (branches and indirect jumps): producer's EX result reaches the
      EX/MEM→ID bypass one cycle after issue (ALU), or the MEM/WB path two
      cycles after issue (loads).
    * ``load_guard[r]`` — earliest ``id_t`` of an EX-stage reader after a
      *load* producer (the classic load-use interlock, enforced in ID).
    """

    model: CycleModel
    avail_id: list[int] = field(default_factory=lambda: [0] * 32)
    load_guard: list[int] = field(default_factory=lambda: [0] * 32)
    hilo_commit: int = 0
    ex_free: int = 0
    prev_issue: int = 0
    fetch_ready: int = 2  # first instruction decodes in cycle 2
    last_id: int = 0
    last_issue: int = 0

    def total_cycles(self) -> int:
        """Cycles until the last issued instruction completes WB."""
        return self.last_issue + self.model.depth - 3

    def capture(self) -> tuple:
        """Immutable copy of every timeline register (for snapshots)."""
        return (
            tuple(self.avail_id),
            tuple(self.load_guard),
            self.hilo_commit,
            self.ex_free,
            self.prev_issue,
            self.fetch_ready,
            self.last_id,
            self.last_issue,
        )

    def restore(self, captured: tuple) -> None:
        (
            avail_id,
            load_guard,
            self.hilo_commit,
            self.ex_free,
            self.prev_issue,
            self.fetch_ready,
            self.last_id,
            self.last_issue,
        ) = captured
        self.avail_id = list(avail_id)
        self.load_guard = list(load_guard)


@dataclass(frozen=True, slots=True)
class FuncSimSnapshot:
    """A paused :class:`FuncSim` at an instruction boundary.

    Contains everything a fresh simulator needs to continue the run
    bit-for-bit: architected state, syscall progress, the scoreboard's
    timing registers, the open basic block, and the trace so far.
    """

    instructions: int
    arch: ArchSnapshot
    syscalls: SyscallSnapshot
    block_start: int | None
    scoreboard: tuple
    trace: TraceMark | None
    finished: bool = False
    exit_code: int = 0


class FuncSim:
    """Functional ISS + analytical cycle model.

    Parameters
    ----------
    program:
        The assembled image to execute.
    cycle_model:
        Pipeline latency parameters (defaults to the paper's single-issue
        in-order configuration).
    monitor:
        Optional integrity monitor (duck-typed :class:`Monitor`).
    fetch_hook:
        Optional transform applied to every fetched word — models transient
        faults on the memory-to-processor transfer path, which the paper's
        in-pipeline monitor catches but a cache-resident checker would not.
    collect_trace:
        Record the dynamic basic-block trace for trace-driven replay.
    decode_cache:
        Optional shared :class:`DecodeCache`.  Decoding and op records
        depend only on the word, so campaign workers pass one cache across
        every injection instead of re-decoding the program per run.
    hang_detector:
        ``None`` (default) disables it; an integer arms a PC-set cycling
        detector once that many instructions have executed.  When an armed
        run revisits an identical architected state ``(pc, regs, hi, lo)``
        at a control transfer — with no store, syscall, or still-pending
        transient fetch transform since the first visit — the machine is
        provably in a loop it can never leave, and the simulator raises the
        same ``instruction limit`` error the budget path would, without
        burning the remaining budget.  Campaign kernels arm it at the
        golden run's instruction count so pristine-length runs never pay
        the per-redirect bookkeeping.
    """

    def __init__(
        self,
        program: Program,
        cycle_model: CycleModel | None = None,
        monitor: Monitor | None = None,
        fetch_hook: FetchHook | None = None,
        collect_trace: bool = False,
        inputs: list[int] | None = None,
        max_instructions: int = 50_000_000,
        decode_cache: DecodeCache | None = None,
        hang_detector: int | None = None,
    ):
        self.program = program
        self.cycle_model = cycle_model or CycleModel()
        self.monitor = monitor
        self.fetch_hook = fetch_hook
        self.collect_trace = collect_trace
        self.max_instructions = max_instructions
        self.state = ArchState.boot(program)
        self.syscalls = SyscallHandler()
        if inputs:
            self.syscalls.inputs.extend(inputs)
        if decode_cache is None:
            decode_cache = DecodeCache()
        elif not isinstance(decode_cache, DecodeCache):
            raise TypeError(
                "decode_cache must be a DecodeCache (it carries the op "
                f"records), not {type(decode_cache).__name__}"
            )
        self._decode_cache = decode_cache
        self._ops = decode_cache.ops
        self._text_start = program.text_start
        self._text_end = program.text_end
        # Resumable run state: run(until=k) pauses here, snapshot()/
        # restore() move it across simulator instances.
        self._scoreboard = _Scoreboard(self.cycle_model)
        self._trace = BlockTrace() if collect_trace else None
        self._block_start: int | None = None
        self._executed = 0
        self._finished = False
        self._exit_code = 0
        self.hang_detector = hang_detector
        #: States seen at control transfers since the last side effect.
        self._loop_seen: dict[tuple, int] = {}

    def _bind_phases(self):
        """The fetch, op-lookup and translate callables one ``run`` uses.

        ``run()`` binds them once, so the phase profiler
        (:mod:`repro.obs.profiler`) can shadow this method with timed
        versions without costing an unprofiled step anything.
        """
        return self.state.memory.read_word, self._ops.get, self._decode_cache.translate

    def run(self, until: int | None = None) -> RunResult:
        """Execute until the program exits; return the :class:`RunResult`.

        With ``until=k`` the simulator pauses once *k* instructions (in
        total, across all ``run`` calls) have executed and returns a
        partial result with ``finished=False``; calling ``run`` again
        continues exactly where it paused.
        """
        state = self.state
        regs = state.regs
        read_word, lookup, translate = self._bind_phases()
        text_start = self._text_start
        text_end = self._text_end
        fetch_hook = self.fetch_hook
        monitor = self.monitor
        on_instruction = on_block_end = None
        if monitor is not None:
            on_instruction = monitor.on_instruction
            on_block_end = monitor.on_block_end
        trace = self._trace
        trace_append = trace.append if trace is not None else None
        syscalls = self.syscalls
        model = self.cycle_model
        mult_latency = model.mult_latency
        div_latency = model.div_latency
        trap_refill = model.depth - 2
        redirect_refill = 1 + model.redirect_penalty
        hang_at = self.hang_detector
        budget = self.max_instructions
        stop = budget if until is None or until > budget else until
        board = self._scoreboard
        avail_id = board.avail_id
        load_guard = board.load_guard
        hilo_commit = board.hilo_commit
        ex_free = board.ex_free
        prev_issue = board.prev_issue
        fetch_ready = board.fetch_ready
        last_id = board.last_id
        last_issue = board.last_issue
        block_start = self._block_start
        executed = self._executed
        pc = state.pc
        try:
            while not self._finished:
                if executed >= stop:
                    if until is not None and executed >= until:
                        break
                    raise InstructionBudgetExceeded(
                        f"instruction limit {budget} exceeded", pc=pc
                    )
                # Instruction fetch outside the text segment is a bus-error
                # machine check — the baseline detection that stops run-off
                # execution (e.g. after a fault removed the program's final
                # control transfer).
                if not text_start <= pc < text_end:
                    raise MemoryAccessError(
                        f"instruction fetch outside text segment at {pc:#010x}",
                        pc=pc,
                    )
                word = read_word(pc)
                if fetch_hook is not None:
                    word = fetch_hook(pc, word)
                op = lookup(word)
                if op is None:
                    op = translate(word, pc)
                (
                    handler,
                    read_mode,
                    sources,
                    dest,
                    is_load,
                    unit,
                    control_flow,
                    side_effect,
                ) = op
                executed += 1
                if block_start is None:
                    block_start = pc
                # Monitoring happens at the ID stage, before execution — a
                # mismatch stops the flow-control instruction from executing.
                extra = 0
                if on_instruction is not None:
                    on_instruction(pc, word)
                if control_flow:
                    if trace_append is not None:
                        trace_append(block_start, pc)
                    block_start = None
                    if on_block_end is not None:
                        extra = on_block_end(pc)

                # Scoreboard: advance the ID and issue timelines.
                id_t = fetch_ready if fetch_ready > prev_issue else prev_issue
                if read_mode == READS_EX:
                    for source in sources:
                        if load_guard[source] > id_t:
                            id_t = load_guard[source]
                elif read_mode == READS_ID:
                    for source in sources:
                        if avail_id[source] > id_t:
                            id_t = avail_id[source]
                elif hilo_commit > id_t:
                    id_t = hilo_commit
                last_id = id_t + extra
                issue_t = last_id + 1
                if ex_free > issue_t:
                    issue_t = ex_free
                if dest >= 0:
                    if is_load:
                        avail_id[dest] = issue_t + 2
                        load_guard[dest] = issue_t + 1
                    else:
                        avail_id[dest] = issue_t + 1
                        load_guard[dest] = 0
                if unit == UNIT_ALU:
                    ex_free = issue_t + 1
                else:
                    latency = mult_latency if unit == UNIT_MULT else div_latency
                    ex_free = issue_t + 1 + latency
                    hilo_commit = issue_t + latency
                prev_issue = last_issue = issue_t

                if handler is None:
                    # Traps serialize: the next instruction decodes only
                    # after the trap has written back (depth - 2 cycles
                    # after its ID).
                    fetch_ready = last_id + trap_refill
                    outcome = syscalls.execute(state)
                    state.pc = pc = (pc + 4) & MASK32
                    if outcome.exited:
                        self._finished = True
                        self._exit_code = outcome.exit_code
                        break
                    redirected = False
                else:
                    fetch_ready = last_id + 1
                    target = handler(regs, state, pc)
                    if target is None:
                        state.pc = pc = (pc + 4) & MASK32
                        redirected = False
                    else:
                        # A taken transfer squashes the in-flight fetch slot.
                        fetch_ready = last_id + redirect_refill
                        state.pc = pc = target
                        redirected = True
                if hang_at is not None and executed >= hang_at:
                    # Before the arming threshold the state table is
                    # provably empty, so the unarmed fast path is one
                    # integer compare.
                    self._check_loop(side_effect, redirected, executed)
        finally:
            self._block_start = block_start
            self._executed = executed
            board.hilo_commit = hilo_commit
            board.ex_free = ex_free
            board.prev_issue = prev_issue
            board.fetch_ready = fetch_ready
            board.last_id = last_id
            board.last_issue = last_issue
        return RunResult(
            cycles=board.total_cycles(),
            instructions=executed,
            exit_code=self._exit_code,
            console=syscalls.console_text,
            block_trace=trace,
            monitor_stats=getattr(monitor, "stats", None),
            finished=self._finished,
        )

    def _check_loop(
        self, side_effect: bool, redirected: bool, executed: int
    ) -> None:
        """Armed hang detection: declare HANG on exact state recurrence.

        Sound by construction: if the full state ``(pc, regs, hi, lo)``
        recurs at a control transfer, memory is untouched since the first
        visit (any store clears the table), no syscall consumed input or
        produced output (syscalls clear it too), and the fetch path is a
        pure function of memory (no transient transform still pending),
        then execution from the second visit replays the interval between
        the visits verbatim, forever.  The monitor cannot intervene later
        either — a violation depends only on the fetched words, which
        repeat exactly, so it would already have fired inside the first
        period.  The run therefore exceeds *any* instruction budget, and
        raising the budget error early classifies identically.
        """
        seen = self._loop_seen
        if side_effect:
            if seen:
                seen.clear()
            return
        if not redirected:
            return
        hook = self.fetch_hook
        if hook is not None:
            hook_pending = getattr(hook, "pending", None)
            if hook_pending is None or hook_pending():
                return
        state = self.state
        key = (state.pc, state.hi, state.lo, tuple(state.regs))
        if key in seen:
            raise InstructionBudgetExceeded(
                f"instruction limit {self.max_instructions} exceeded",
                pc=state.pc,
            )
        if len(seen) >= 65_536:  # bound the table on pathological runs
            seen.clear()
        seen[key] = executed

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> FuncSimSnapshot:
        """Capture the paused simulation at its current instruction.

        The monitor, if any, is *not* included — snapshot it separately
        (``CodeIntegrityChecker.snapshot()``) alongside this one.
        """
        return FuncSimSnapshot(
            instructions=self._executed,
            arch=snapshot_arch(self.state),
            syscalls=snapshot_syscalls(self.syscalls),
            block_start=self._block_start,
            scoreboard=self._scoreboard.capture(),
            trace=mark_trace(self._trace),
            finished=self._finished,
            exit_code=self._exit_code,
        )

    def restore(self, snapshot: FuncSimSnapshot) -> None:
        """Rewind (or fast-forward) this simulator to *snapshot*."""
        # States observed before the move are not on the restored path.
        self._loop_seen.clear()
        restore_arch(self.state, snapshot.arch)
        restore_syscalls(self.syscalls, snapshot.syscalls)
        self._block_start = snapshot.block_start
        self._executed = snapshot.instructions
        self._scoreboard.restore(snapshot.scoreboard)
        restore_trace(self._trace, snapshot.trace)
        self._finished = snapshot.finished
        self._exit_code = snapshot.exit_code


def run_program(
    program: Program,
    monitor: Monitor | None = None,
    collect_trace: bool = False,
    inputs: list[int] | None = None,
    cycle_model: CycleModel | None = None,
    max_instructions: int = 50_000_000,
) -> RunResult:
    """One-shot convenience wrapper around :class:`FuncSim`."""
    simulator = FuncSim(
        program,
        cycle_model=cycle_model,
        monitor=monitor,
        collect_trace=collect_trace,
        inputs=inputs,
        max_instructions=max_instructions,
    )
    return simulator.run()
