"""Cycle-level simulator of the single-issue in-order pipeline.

Five stages — IF, ID, EX, MEM, WB — with full forwarding, branch resolution
in ID, a multi-cycle multiply/divide unit, and trap serialization.  The
stage-latch structure follows the paper's Figure 2 datapath; the Code
Integrity Checker attaches at exactly the points the paper augments:

* every instruction that enters ID un-squashed triggers the IF-extension
  microoperations (STA latch + RHASH accumulation) — see DESIGN.md note 2
  for why the speculative IF-stage update is committed at ID entry;
* every flow-control instruction triggers the ID-extension microoperations
  (IHTbb lookup, exception signals, STA/RHASH reset) in its ID cycle,
  *before* the instruction executes — a mismatch stops the program with the
  tampered block never completing.

A hash-miss exception charges the OS handling penalty to the cycle counter
(the in-flight multiplier keeps ticking through the OS episode); a mismatch
terminates the run by raising :class:`~repro.errors.MonitorViolation`.

Stage processing order within a cycle is WB → MEM → EX → ID → IF, so
write-through register-file behaviour (WB writes visible to same-cycle ID
and EX reads) falls out naturally, and only the EX/MEM→EX and EX/MEM→ID
bypasses need explicit modelling.

The stage loop is predecoded, like FuncSim's.  Everything that depends
only on the fetched word is worked out once, on the word's first decode,
into a :class:`StageRecord` built from the word's
:class:`~repro.pipeline.funcsim.OpRecord`: the hazard unit's read mode and
``$0``-free sources, the destination, the EX-stage value function and the
registers feeding it, the MEM access, the ID-stage redirect and the trap
kind.  Records live in :attr:`DecodeCache.stages
<repro.pipeline.funcsim.DecodeCache>`, keyed by the *fetched* word (after
the fetch hook), so a corrupted word gets its own record and an
undecodable word raises :class:`~repro.errors.DecodingError` each time it
reaches ID without ever being cached.  ``run()`` keeps the four latches
and the cycle counters in locals and writes them back, as the picklable
latch dataclasses below, whenever it returns or raises — so snapshots
see the same values at every pause point.

Cycle accounting is asserted (by the differential test suite) to equal the
analytical scoreboard of :class:`~repro.pipeline.funcsim.FuncSim` exactly,
instruction for instruction, on every workload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from sys import maxsize
from typing import Callable

from repro.errors import (
    BreakTrap,
    InstructionBudgetExceeded,
    MemoryAccessError,
)
from repro.asm.program import Program
from repro.pipeline import semantics
from repro.pipeline.funcsim import (
    READS_EX,
    READS_ID,
    UNIT_MULT,
    DecodeCache,
    Monitor,
    OpRecord,
    RunResult,
)
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
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Mnemonic
from repro.isa.properties import BRANCHES, INDIRECT_JUMPS
from repro.utils.bitops import MASK32

FetchHook = Callable[[int, int], int]


# The stage latches are the picklable form of the machine's in-flight
# state.  ``run()`` holds them in locals and builds new latch objects when
# it returns; nothing mutates one after creation, so snapshots and the
# machine share them without copies.


@dataclass(slots=True)
class _IFID:
    pc: int
    word: int
    #: Fetch landed outside the text segment: bus error when it reaches ID.
    fault: bool = False


@dataclass(slots=True)
class _IDEX:
    instruction: Instruction
    pc: int
    #: Pre-computed result for instructions resolved in ID (link values).
    id_result: int | None


@dataclass(slots=True)
class _EXMEM:
    instruction: Instruction
    pc: int
    result: int  # ALU value or effective address
    dest: int | None
    is_load: bool
    is_store: bool


@dataclass(slots=True)
class _MEMWB:
    instruction: Instruction
    pc: int
    value: int | None
    dest: int | None


# ---------------------------------------------------------------------------
# Stage records: what each stage needs, derived once per fetched word
# ---------------------------------------------------------------------------

#: EX-stage kinds.  ``EX_VALUE`` is ``result = handler(a, b)`` over the
#: forwarded values of ``ex_a``/``ex_b`` (ALU ops, load/store addresses,
#: and ``0`` for instructions with nothing to compute); the rest touch the
#: multiply unit or HI/LO, or pass on the link value ``jal``/``jalr``
#: resolve in ID.
EX_VALUE = 0
EX_LINK = 1
EX_MULDIV = 2
EX_MFHI = 3
EX_MFLO = 4
EX_MTHI = 5
EX_MTLO = 6

#: MEM-stage accesses.
MEM_NONE = 0
MEM_LOAD = 1
MEM_STORE = 2

#: Traps acted on at WB (``syscall`` also serializes decode from ID).
TRAP_NONE = 0
TRAP_SYSCALL = 1
TRAP_BREAK = 2


@dataclass(frozen=True, slots=True)
class StageRecord:
    """The predecoded form of one instruction word, for the stage loop.

    A slotted dataclass rather than a named tuple: the loop reads a few
    fields per stage, and slot reads are the cheaper ones.
    """

    #: The decoded word; the only thing the (picklable) latches carry.
    instruction: Instruction
    #: EX-stage value function ``handler(a, b)`` (:data:`EX_VALUE` and
    #: :data:`EX_MULDIV`), bound to the :mod:`~repro.pipeline.semantics`
    #: tables and the word's immediates.
    handler: Callable
    #: One of the ``EX_*`` kinds.
    ex: int
    #: Registers whose EX-stage (forwarded) values feed ``handler``.
    ex_a: int
    ex_b: int
    #: One of the ``MEM_*`` accesses, and its :data:`semantics.LOADS` /
    #: :data:`semantics.STORES` entry.
    mem: int
    access: Callable | None
    #: Hazard-unit facts, as in :class:`~repro.pipeline.funcsim.OpRecord`.
    read_mode: int
    sources: tuple[int, ...]
    #: Register written, or ``-1`` for none (or ``$0``).
    dest: int
    #: ``dest`` for loads, else ``-1``: what the load-use interlock checks.
    load_dest: int
    unit: int
    control_flow: bool
    #: ID-stage redirect ``resolve(pc, a, b) -> target | None`` over the
    #: bypassed values of ``id_a``/``id_b``; ``None`` for non-transfers.
    resolve: Callable | None
    id_a: int
    id_b: int
    #: One of the ``TRAP_*`` kinds.
    trap: int

    def _replace(self, **changes) -> "StageRecord":
        """A copy with *changes*, spelled as on :class:`OpRecord`."""
        return replace(self, **changes)


def _zero(a, b):
    return 0


def _ex_function(instruction: Instruction) -> tuple[int, Callable, int, int]:
    """``(kind, handler, ex_a, ex_b)`` of one decoded instruction."""
    m = instruction.mnemonic
    rs, rt = instruction.rs, instruction.rt
    alu = semantics.ALU_OPS.get(m)
    if alu is not None:
        form, fn = alu
        if form is semantics.REG_REG:
            return EX_VALUE, fn, rs, rt
        if form is semantics.SHIFT_REG:
            return EX_VALUE, fn, rt, rs
        if form is semantics.REG_IMM:
            imm = instruction.imm
            return EX_VALUE, lambda a, b: fn(a, imm), rs, 0
        shamt = instruction.shamt
        return EX_VALUE, lambda a, b: fn(a, shamt), rt, 0
    if instruction.is_load() or instruction.is_store():
        address = semantics.effective_address
        offset = instruction.imm
        return EX_VALUE, lambda a, b: address(a, offset), rs, 0
    muldiv = semantics.MULDIV_OPS.get(m)
    if muldiv is not None:
        return EX_MULDIV, muldiv, rs, rt
    if m is Mnemonic.MFHI:
        return EX_MFHI, _zero, 0, 0
    if m is Mnemonic.MFLO:
        return EX_MFLO, _zero, 0, 0
    if m is Mnemonic.MTHI:
        return EX_MTHI, _zero, rs, 0
    if m is Mnemonic.MTLO:
        return EX_MTLO, _zero, rs, 0
    if m is Mnemonic.JAL or m is Mnemonic.JALR:
        return EX_LINK, _zero, 0, 0
    # Branches, j, jr and traps compute nothing in EX.
    return EX_VALUE, _zero, 0, 0


def _resolver(instruction: Instruction) -> tuple[Callable | None, int, int]:
    """``(resolve, id_a, id_b)``: the ID-stage redirect of a transfer."""
    m = instruction.mnemonic
    if m in BRANCHES:
        taken = semantics.BRANCH_CONDITIONS[m]
        branch = semantics.branch_target
        imm = instruction.imm

        def resolve(pc, a, b):
            if taken(a, b):
                return branch(pc, imm)
            return None

        return resolve, instruction.rs, instruction.rt
    if m is Mnemonic.J or m is Mnemonic.JAL:
        jump = semantics.jump_target
        target = instruction.target
        return (lambda pc, a, b: jump(pc, target)), 0, 0
    if m in INDIRECT_JUMPS:
        return (lambda pc, a, b: a), instruction.rs, 0
    return None, 0, 0


def stage_record(instruction: Instruction, op: OpRecord) -> StageRecord:
    """Predecode *instruction* (whose op record is *op*) for the stage loop."""
    m = instruction.mnemonic
    kind, handler, ex_a, ex_b = _ex_function(instruction)
    resolve, id_a, id_b = _resolver(instruction)
    if op.is_load:
        mem, access = MEM_LOAD, semantics.LOADS[m]
    elif instruction.is_store():
        mem, access = MEM_STORE, semantics.STORES[m]
    else:
        mem, access = MEM_NONE, None
    if m is Mnemonic.SYSCALL:
        trap = TRAP_SYSCALL
    elif m is Mnemonic.BREAK:
        trap = TRAP_BREAK
    else:
        trap = TRAP_NONE
    return StageRecord(
        instruction=instruction,
        handler=handler,
        ex=kind,
        ex_a=ex_a,
        ex_b=ex_b,
        mem=mem,
        access=access,
        read_mode=op.read_mode,
        sources=op.sources,
        dest=op.dest,
        load_dest=op.dest if op.is_load else -1,
        unit=op.unit,
        control_flow=op.control_flow,
        resolve=resolve,
        id_a=id_a,
        id_b=id_b,
        trap=trap,
    )


@dataclass(frozen=True, slots=True)
class PipelineSnapshot:
    """A paused :class:`PipelineCPU` at a cycle boundary.

    Unlike the functional simulator, the cycle-level machine has state in
    flight: the four stage latches, the multi-cycle EX unit, and the trap
    serialization window all travel with the snapshot so a restored run
    replays the exact same cycles.
    """

    cycle: int
    instructions: int
    arch: ArchSnapshot
    syscalls: SyscallSnapshot
    block_start: int | None
    trace: TraceMark | None
    if_id: _IFID | None
    id_ex: _IDEX | None
    ex_mem: _EXMEM | None
    mem_wb: _MEMWB | None
    ex_busy: int
    pending_hilo: tuple[int, int] | None
    id_frozen_until: int
    finished: bool = False
    exit_code: int = 0


class PipelineCPU:
    """Stage-latch simulator of the monitored in-order pipeline."""

    def __init__(
        self,
        program: Program,
        cycle_model: CycleModel | None = None,
        monitor: Monitor | None = None,
        fetch_hook: FetchHook | None = None,
        collect_trace: bool = False,
        inputs: list[int] | None = None,
        max_cycles: int = 200_000_000,
        decode_cache: DecodeCache | None = None,
    ):
        self.program = program
        self.cycle_model = cycle_model or CycleModel()
        self.monitor = monitor
        self.fetch_hook = fetch_hook
        self.collect_trace = collect_trace
        self.max_cycles = max_cycles
        self.state = ArchState.boot(program)
        self.syscalls = SyscallHandler()
        if inputs:
            self.syscalls.inputs.extend(inputs)
        if decode_cache is None:
            decode_cache = DecodeCache()
        elif not isinstance(decode_cache, DecodeCache):
            raise TypeError(
                "decode_cache must be a DecodeCache (it carries the stage "
                f"records), not {type(decode_cache).__name__}"
            )
        self._decode_cache = decode_cache
        self._stages = decode_cache.stages
        self._text_start = program.text_start
        self._text_end = program.text_end
        # Resumable machine state: stage latches plus the counters the
        # cycle loop threads through; run(until=k) pauses here and
        # snapshot()/restore() move it across simulator instances.
        self._if_id: _IFID | None = None
        self._id_ex: _IDEX | None = None
        self._ex_mem: _EXMEM | None = None
        self._mem_wb: _MEMWB | None = None
        self._cycle = 0
        self._executed = 0
        self._ex_busy = 0
        self._pending_hilo: tuple[int, int] | None = None
        self._id_frozen_until = 0
        self._block_start: int | None = None
        self._trace = BlockTrace() if collect_trace else None
        self._finished = False
        self._exit_code = 0

    # ------------------------------------------------------------------

    @property
    def cycles(self) -> int:
        """Cycles elapsed so far (valid mid-run and after a machine check)."""
        return self._cycle

    @property
    def instructions(self) -> int:
        """Instructions that have entered ID so far."""
        return self._executed

    def _translate(self, word: int, address: int) -> StageRecord:
        """First decode of *word*: build and cache its stage record."""
        cache = self._decode_cache
        op = cache.ops.get(word) or cache.translate(word, address)
        record = stage_record(cache[word], op)
        self._stages[word] = record
        return record

    def _bind_phases(self):
        """The fetch, record-lookup and translate callables one ``run`` uses.

        The same contract as :meth:`FuncSim._bind_phases
        <repro.pipeline.funcsim.FuncSim._bind_phases>`: ``run()`` binds them
        once, so the phase profiler can shadow this method with timed
        versions without costing an unprofiled cycle anything.
        """
        return self.state.memory.read_word, self._stages.get, self._translate

    # ------------------------------------------------------------------

    def run(self, until: int | None = None) -> RunResult:
        """Run the pipeline; pause at a cycle boundary once *until*
        instructions have entered ID (``finished=False``), else run to
        program exit.  Calling ``run`` again continues the same machine.
        """
        state = self.state
        regs = state.regs
        memory = state.memory
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
        max_cycles = self.max_cycles
        stop = maxsize if until is None else until
        link_value = semantics.link_value

        cycle = self._cycle
        executed = self._executed
        ex_busy = self._ex_busy
        pending_hilo = self._pending_hilo
        frozen_until = self._id_frozen_until
        block_start = self._block_start
        finished = self._finished
        fetch_pc = state.pc

        def record_of(latch) -> StageRecord:
            word = latch.instruction.word
            return lookup(word) or translate(word, latch.pc)

        # The latches as locals.  An empty latch has ``None`` for its
        # record (``f_pc`` for IF/ID); ``f_word`` is ``None`` for a fetch
        # outside the text segment, and ``f_op`` stays ``None`` until the
        # word's record exists.  ``m_dest``/``m_value`` are the EX/MEM→EX
        # and →ID bypass once MEM has moved the old EX/MEM latch into
        # MEM/WB; ``x_ld`` is the load destination EX took this cycle.
        latch = self._if_id
        f_pc = f_word = f_op = None
        if latch is not None:
            f_pc = latch.pc
            if not latch.fault:
                f_word = latch.word
                f_op = lookup(f_word)
        latch = self._id_ex
        d_op = d_pc = d_link = None
        if latch is not None:
            d_op, d_pc, d_link = record_of(latch), latch.pc, latch.id_result
        latch = self._ex_mem
        x_op = x_pc = None
        x_result = 0
        x_dest = x_ld = -1
        if latch is not None:
            x_op, x_pc, x_result = record_of(latch), latch.pc, latch.result
            x_dest = x_op.dest
        latch = self._mem_wb
        m_op = m_pc = m_value = None
        m_dest = -1
        if latch is not None:
            m_op, m_pc, m_value = record_of(latch), latch.pc, latch.value
            m_dest = m_op.dest
        try:
            while not finished:
                if executed >= stop:
                    break
                if cycle >= max_cycles:
                    raise InstructionBudgetExceeded(
                        f"cycle limit {max_cycles} exceeded", cycle=cycle + 1
                    )
                cycle += 1

                # ---------------- WB ----------------
                if m_op is not None:
                    if m_dest >= 0:
                        regs[m_dest] = m_value
                    if m_op.trap:
                        if m_op.trap == TRAP_BREAK:
                            raise BreakTrap(
                                f"break {m_op.instruction.code}",
                                pc=m_pc,
                                cycle=cycle,
                            )
                        state.pc = fetch_pc
                        outcome = syscalls.execute(state)
                        if outcome.exited:
                            m_op = None
                            finished = True
                            self._exit_code = outcome.exit_code
                            break
                    m_op = None

                # ---------------- MEM ----------------
                if x_op is not None:
                    mem = x_op.mem
                    if mem == MEM_NONE:
                        m_value = x_result
                    elif mem == MEM_LOAD:
                        m_value = x_op.access(memory, x_result)
                    else:
                        # Store data is read at MEM time: this cycle's WB
                        # has already updated the register file, covering
                        # every producer distance without a bypass.
                        x_op.access(memory, x_result, regs[x_op.instruction.rt])
                        m_value = None
                    m_op = x_op
                    m_pc = x_pc
                    m_dest = x_dest
                    x_op = None
                else:
                    m_dest = -1

                # ---------------- EX ----------------
                if ex_busy:
                    ex_busy -= 1
                    if not ex_busy and pending_hilo is not None:
                        state.hi, state.lo = pending_hilo
                        pending_hilo = None
                    x_ld = -1
                elif d_op is not None:
                    op = d_op
                    d_op = None
                    kind = op.ex
                    if kind == EX_VALUE:
                        # The register file already reflects this cycle's
                        # WB; the old EX/MEM latch (now in MEM/WB) is the
                        # distance-1 bypass.  Loads never forward here: the
                        # load-use interlock keeps consumers a cycle away.
                        register = op.ex_a
                        a = m_value if register == m_dest else regs[register]
                        register = op.ex_b
                        b = m_value if register == m_dest else regs[register]
                        x_result = op.handler(a, b)
                    elif kind == EX_LINK:
                        x_result = d_link
                    else:
                        register = op.ex_a
                        a = m_value if register == m_dest else regs[register]
                        x_result = 0
                        if kind == EX_MULDIV:
                            register = op.ex_b
                            b = m_value if register == m_dest else regs[register]
                            hilo = op.handler(a, b)
                            if op.unit == UNIT_MULT:
                                latency = mult_latency
                            else:
                                latency = div_latency
                            if latency > 0:
                                ex_busy = latency
                                pending_hilo = hilo
                            else:
                                state.hi, state.lo = hilo
                        elif kind == EX_MFHI:
                            x_result = state.hi
                        elif kind == EX_MFLO:
                            x_result = state.lo
                        elif kind == EX_MTHI:
                            state.hi = a
                        else:
                            state.lo = a
                    x_op = op
                    x_pc = d_pc
                    x_dest = op.dest
                    x_ld = op.load_dest
                else:
                    x_ld = -1

                # ---------------- ID ----------------
                if d_op is None and f_pc is not None and cycle >= frozen_until:
                    op = f_op
                    if op is None:
                        if f_word is None:
                            raise MemoryAccessError(
                                "instruction fetch outside text segment at "
                                f"{f_pc:#010x}",
                                pc=f_pc,
                                cycle=cycle,
                            )
                        op = f_op = translate(f_word, f_pc)
                    # Hazard detection unit (see hazards.py for the rules).
                    read_mode = op.read_mode
                    if read_mode == READS_EX:
                        # Load-use; a store's data register is read in MEM.
                        stalled = x_ld in op.sources
                    elif read_mode == READS_ID:
                        # A producer still in EX delivers next cycle; a
                        # load in MEM has not yet written back.
                        in_ex = x_dest if x_op is not None else -1
                        in_mem = -1
                        if m_op is not None and m_op.mem == MEM_LOAD:
                            in_mem = m_dest
                        stalled = False
                        for source in op.sources:
                            if source == in_ex or source == in_mem:
                                stalled = True
                                break
                    else:
                        stalled = pending_hilo is not None
                    if not stalled:
                        executed += 1
                        pc = f_pc
                        if block_start is None:
                            block_start = pc
                        if on_instruction is not None:
                            on_instruction(pc, f_word)
                        link = target = None
                        if op.control_flow:
                            if trace_append is not None:
                                trace_append(block_start, pc)
                            block_start = None
                            if on_block_end is not None:
                                extra = on_block_end(pc)
                                if extra:
                                    cycle += extra
                                    # The OS episode runs on this CPU: an
                                    # in-flight multiply finishes during it.
                                    ex_busy -= min(ex_busy, extra)
                                    if not ex_busy and pending_hilo is not None:
                                        state.hi, state.lo = pending_hilo
                                        pending_hilo = None
                            resolve = op.resolve
                            if resolve is not None:
                                # ID-stage reads: register file after this
                                # cycle's WB, plus the EX/MEM→ID bypass.
                                register = op.id_a
                                a = m_value if register == m_dest else regs[register]
                                register = op.id_b
                                b = m_value if register == m_dest else regs[register]
                                if op.ex == EX_LINK:
                                    link = link_value(pc)
                                target = resolve(pc, a, b)
                            elif op.trap == TRAP_SYSCALL:
                                # Traps serialize: next decode after WB.
                                frozen_until = cycle + trap_refill
                        d_op = op
                        d_pc = pc
                        d_link = link
                        f_pc = None  # consumed: IF refills the slot below
                        if target is not None:
                            # Taken: IF idles this cycle (the one-slot
                            # redirect bubble) and restarts at the target.
                            fetch_pc = target & MASK32
                            continue

                # ---------------- IF ----------------
                if f_pc is None:
                    # Out-of-text fetches are poisoned and raise a bus
                    # error only if the slot reaches decode (a prefetch
                    # past the final syscall is squashed by the exit).
                    f_pc = fetch_pc
                    if text_start <= fetch_pc < text_end:
                        f_word = read_word(fetch_pc)
                        if fetch_hook is not None:
                            f_word = fetch_hook(fetch_pc, f_word)
                        f_op = lookup(f_word)
                    else:
                        f_word = f_op = None
                    fetch_pc = (fetch_pc + 4) & MASK32
                # else: hold if_id and the fetch PC
        finally:
            self._cycle = cycle
            self._executed = executed
            self._ex_busy = ex_busy
            self._pending_hilo = pending_hilo
            self._id_frozen_until = frozen_until
            self._block_start = block_start
            self._finished = finished
            state.pc = fetch_pc
            if f_pc is None:
                self._if_id = None
            elif f_word is None:
                self._if_id = _IFID(f_pc, 0, fault=True)
            else:
                self._if_id = _IFID(f_pc, f_word)
            self._id_ex = (
                None if d_op is None else _IDEX(d_op.instruction, d_pc, d_link)
            )
            self._ex_mem = None if x_op is None else _EXMEM(
                x_op.instruction,
                x_pc,
                x_result,
                None if x_dest < 0 else x_dest,
                x_op.mem == MEM_LOAD,
                x_op.mem == MEM_STORE,
            )
            self._mem_wb = None if m_op is None else _MEMWB(
                m_op.instruction, m_pc, m_value, None if m_dest < 0 else m_dest
            )
        return RunResult(
            cycles=cycle,
            instructions=executed,
            exit_code=self._exit_code,
            console=syscalls.console_text,
            block_trace=trace,
            monitor_stats=getattr(monitor, "stats", None),
            finished=finished,
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> PipelineSnapshot:
        """Capture the paused machine, in-flight latches included."""
        return PipelineSnapshot(
            cycle=self._cycle,
            instructions=self._executed,
            arch=snapshot_arch(self.state),
            syscalls=snapshot_syscalls(self.syscalls),
            block_start=self._block_start,
            trace=mark_trace(self._trace),
            if_id=self._if_id,
            id_ex=self._id_ex,
            ex_mem=self._ex_mem,
            mem_wb=self._mem_wb,
            ex_busy=self._ex_busy,
            pending_hilo=self._pending_hilo,
            id_frozen_until=self._id_frozen_until,
            finished=self._finished,
            exit_code=self._exit_code,
        )

    def restore(self, snapshot: PipelineSnapshot) -> None:
        """Rewind (or fast-forward) this machine to *snapshot*."""
        restore_arch(self.state, snapshot.arch)
        restore_syscalls(self.syscalls, snapshot.syscalls)
        self._cycle = snapshot.cycle
        self._executed = snapshot.instructions
        self._block_start = snapshot.block_start
        self._if_id = snapshot.if_id
        self._id_ex = snapshot.id_ex
        self._ex_mem = snapshot.ex_mem
        self._mem_wb = snapshot.mem_wb
        self._ex_busy = snapshot.ex_busy
        self._pending_hilo = snapshot.pending_hilo
        self._id_frozen_until = snapshot.id_frozen_until
        restore_trace(self._trace, snapshot.trace)
        self._finished = snapshot.finished
        self._exit_code = snapshot.exit_code
