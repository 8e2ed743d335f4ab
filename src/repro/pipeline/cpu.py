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

Cycle accounting is asserted (by the differential test suite) to equal the
analytical scoreboard of :class:`~repro.pipeline.funcsim.FuncSim` exactly,
instruction for instruction, on every workload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _copy_latch
from typing import Callable

from repro.errors import (
    BreakTrap,
    InstructionBudgetExceeded,
    MemoryAccessError,
)
from repro.asm.program import Program
from repro.pipeline import semantics
from repro.pipeline.funcsim import Monitor, RunResult
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
from repro.isa.properties import BRANCHES, INDIRECT_JUMPS, is_control_flow

FetchHook = Callable[[int, int], int]


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


def _latch_copy(latch):
    """Copy a stage latch (None-safe); instructions are shared, immutable."""
    return None if latch is None else _copy_latch(latch)


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
        decode_cache: dict[int, Instruction] | None = None,
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
        self._decode_cache: dict[int, Instruction] = (
            decode_cache if decode_cache is not None else {}
        )
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

    def _fetch_latch(self, address: int) -> _IFID:
        """Fetch into the IF/ID latch; out-of-text fetches are poisoned and
        raise a bus-error machine check only if the slot reaches decode
        (a speculative prefetch past the final syscall is squashed by the
        program exiting first)."""
        if not self._text_start <= address < self._text_end:
            return _IFID(address, 0, fault=True)
        word = self.state.memory.read_word(address)
        if self.fetch_hook is not None:
            word = self.fetch_hook(address, word)
        return _IFID(address, word)

    def _decode(self, word: int, address: int) -> Instruction:
        cached = self._decode_cache.get(word)
        if cached is None:
            cached = decode(word, address)
            self._decode_cache[word] = cached
        return cached

    # ------------------------------------------------------------------

    def run(self, until: int | None = None) -> RunResult:
        """Run the pipeline; pause at a cycle boundary once *until*
        instructions have entered ID (``finished=False``), else run to
        program exit.  Calling ``run`` again continues the same machine.
        """
        state = self.state
        model = self.cycle_model
        monitor = self.monitor
        trace = self._trace

        while not self._finished:
            if until is not None and self._executed >= until:
                break
            cycle = self._cycle + 1
            if cycle > self.max_cycles:
                raise InstructionBudgetExceeded(
                    f"cycle limit {self.max_cycles} exceeded", cycle=cycle
                )
            self._cycle = cycle
            old_ex_mem = self._ex_mem
            redirect_target: int | None = None

            # ---------------- WB ----------------
            mem_wb = self._mem_wb
            if mem_wb is not None:
                m = mem_wb.instruction.mnemonic
                if mem_wb.dest is not None and mem_wb.value is not None:
                    state.write_reg(mem_wb.dest, mem_wb.value)
                if m is Mnemonic.SYSCALL:
                    result = self.syscalls.execute(state)
                    if result.exited:
                        self._mem_wb = None
                        self._finished = True
                        self._exit_code = result.exit_code
                        break
                elif m is Mnemonic.BREAK:
                    raise BreakTrap(
                        f"break {mem_wb.instruction.code}", pc=mem_wb.pc, cycle=cycle
                    )
            self._mem_wb = None

            # ---------------- MEM ----------------
            ex_mem = self._ex_mem
            if ex_mem is not None:
                instruction = ex_mem.instruction
                if ex_mem.is_load:
                    value = semantics.load_value(
                        instruction, state.memory, ex_mem.result
                    )
                    self._mem_wb = _MEMWB(instruction, ex_mem.pc, value, ex_mem.dest)
                elif ex_mem.is_store:
                    # Store data is read at MEM time: this cycle's WB has
                    # already updated the register file, covering every
                    # producer distance without a dedicated bypass.
                    semantics.store_value(
                        instruction,
                        state.memory,
                        ex_mem.result,
                        state.read_reg(instruction.rt),
                    )
                    self._mem_wb = _MEMWB(instruction, ex_mem.pc, None, None)
                else:
                    self._mem_wb = _MEMWB(
                        instruction, ex_mem.pc, ex_mem.result, ex_mem.dest
                    )
                self._ex_mem = None

            # ---------------- EX ----------------
            in_ex: Instruction | None = None
            if self._ex_busy > 0:
                self._ex_busy -= 1
                if self._ex_busy == 0 and self._pending_hilo is not None:
                    state.hi, state.lo = self._pending_hilo
                    self._pending_hilo = None
            elif self._id_ex is not None:
                consumed = self._id_ex
                self._id_ex = None
                in_ex = consumed.instruction
                self._ex_mem, started_busy = self._execute_stage(
                    consumed, old_ex_mem, model
                )
                if started_busy is not None:
                    self._ex_busy, self._pending_hilo = started_busy

            # ---------------- ID ----------------
            accepted = False
            if_id = self._if_id
            if (
                self._id_ex is None
                and if_id is not None
                and cycle >= self._id_frozen_until
            ):
                if if_id.fault:
                    raise MemoryAccessError(
                        "instruction fetch outside text segment at "
                        f"{if_id.pc:#010x}",
                        pc=if_id.pc,
                        cycle=cycle,
                    )
                instruction = self._decode(if_id.word, if_id.pc)
                if not self._id_stall(
                    instruction, in_ex, old_ex_mem, self._pending_hilo
                ):
                    accepted = True
                    self._executed += 1
                    pc = if_id.pc
                    if self._block_start is None:
                        self._block_start = pc
                    if monitor is not None:
                        monitor.on_instruction(pc, if_id.word)
                    if is_control_flow(instruction):
                        if trace is not None:
                            trace.append(self._block_start, pc)
                        self._block_start = None
                        if monitor is not None:
                            extra = monitor.on_block_end(pc)
                            if extra:
                                self._cycle += extra
                                # The OS episode runs on this CPU: an
                                # in-flight multiply finishes during it.
                                drained = min(self._ex_busy, extra)
                                self._ex_busy -= drained
                                if (
                                    self._ex_busy == 0
                                    and self._pending_hilo is not None
                                ):
                                    state.hi, state.lo = self._pending_hilo
                                    self._pending_hilo = None
                    id_result: int | None = None
                    m = instruction.mnemonic
                    if m in BRANCHES:
                        rs_value = self._id_read(instruction.rs, old_ex_mem)
                        rt_value = self._id_read(instruction.rt, old_ex_mem)
                        if semantics.branch_taken(instruction, rs_value, rt_value):
                            redirect_target = semantics.control_target(
                                instruction, pc, rs_value
                            )
                    elif m is Mnemonic.J:
                        redirect_target = semantics.control_target(instruction, pc, 0)
                    elif m is Mnemonic.JAL:
                        redirect_target = semantics.control_target(instruction, pc, 0)
                        id_result = semantics.link_value(pc)
                    elif m is Mnemonic.JR:
                        redirect_target = self._id_read(instruction.rs, old_ex_mem)
                    elif m is Mnemonic.JALR:
                        redirect_target = self._id_read(instruction.rs, old_ex_mem)
                        id_result = semantics.link_value(pc)
                    elif m is Mnemonic.SYSCALL:
                        # Traps serialize: next decode after this WB.
                        self._id_frozen_until = self._cycle + model.depth - 2
                    self._id_ex = _IDEX(instruction, pc, id_result)

            # ---------------- IF ----------------
            if redirect_target is not None:
                self._if_id = None  # squash the wrong-path fetch slot
                state.pc = redirect_target & 0xFFFFFFFF
            elif self._if_id is None or accepted:
                self._if_id = self._fetch_latch(state.pc)
                state.pc = (state.pc + 4) & 0xFFFFFFFF
            # else: hold if_id and the fetch PC

        return RunResult(
            cycles=self._cycle,
            instructions=self._executed,
            exit_code=self._exit_code,
            console=self.syscalls.console_text,
            block_trace=trace,
            monitor_stats=getattr(monitor, "stats", None),
            finished=self._finished,
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
            if_id=_latch_copy(self._if_id),
            id_ex=_latch_copy(self._id_ex),
            ex_mem=_latch_copy(self._ex_mem),
            mem_wb=_latch_copy(self._mem_wb),
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
        self._if_id = _latch_copy(snapshot.if_id)
        self._id_ex = _latch_copy(snapshot.id_ex)
        self._ex_mem = _latch_copy(snapshot.ex_mem)
        self._mem_wb = _latch_copy(snapshot.mem_wb)
        self._ex_busy = snapshot.ex_busy
        self._pending_hilo = snapshot.pending_hilo
        self._id_frozen_until = snapshot.id_frozen_until
        restore_trace(self._trace, snapshot.trace)
        self._finished = snapshot.finished
        self._exit_code = snapshot.exit_code

    # ------------------------------------------------------------------

    def _execute_stage(
        self,
        latch: _IDEX,
        old_ex_mem: _EXMEM | None,
        model: CycleModel,
    ) -> tuple[_EXMEM | None, tuple[int, tuple[int, int] | None] | None]:
        """Process one instruction in EX; return (ex_mem, busy-start)."""
        state = self.state
        instruction = latch.instruction
        m = instruction.mnemonic

        def operand(register: int) -> int:
            # Register file already reflects this cycle's WB; the EX/MEM
            # latch provides the distance-1 bypass.  Loads cannot appear
            # here: the load-use interlock keeps consumers a cycle away.
            value = state.read_reg(register)
            if (
                old_ex_mem is not None
                and old_ex_mem.dest == register
                and register != 0
            ):
                assert not old_ex_mem.is_load
                value = old_ex_mem.result
            return value

        if latch.id_result is not None:
            return (
                _EXMEM(
                    instruction,
                    latch.pc,
                    latch.id_result,
                    instruction.destination_register(),
                    False,
                    False,
                ),
                None,
            )
        if m in (Mnemonic.MULT, Mnemonic.MULTU, Mnemonic.DIV, Mnemonic.DIVU):
            hilo = semantics.muldiv_result(
                instruction, operand(instruction.rs), operand(instruction.rt)
            )
            latency = (
                model.mult_latency
                if m in (Mnemonic.MULT, Mnemonic.MULTU)
                else model.div_latency
            )
            passthrough = _EXMEM(instruction, latch.pc, 0, None, False, False)
            if latency > 0:
                return passthrough, (latency, hilo)
            state.hi, state.lo = hilo  # type: ignore[misc]
            return passthrough, None
        if m is Mnemonic.MFHI:
            return (
                _EXMEM(
                    instruction, latch.pc, state.hi,
                    instruction.destination_register(), False, False,
                ),
                None,
            )
        if m is Mnemonic.MFLO:
            return (
                _EXMEM(
                    instruction, latch.pc, state.lo,
                    instruction.destination_register(), False, False,
                ),
                None,
            )
        if m is Mnemonic.MTHI:
            state.hi = operand(instruction.rs)
            return _EXMEM(instruction, latch.pc, 0, None, False, False), None
        if m is Mnemonic.MTLO:
            state.lo = operand(instruction.rs)
            return _EXMEM(instruction, latch.pc, 0, None, False, False), None
        # Forward only the registers this instruction actually reads at EX:
        # store data is consumed at MEM, and I-type rt is a destination.
        sources = instruction.source_registers()
        rs_value = operand(instruction.rs) if instruction.rs in sources else 0
        if instruction.rt in sources and not instruction.is_store():
            rt_value = operand(instruction.rt)
        else:
            rt_value = 0
        result = semantics.alu_result(instruction, rs_value, rt_value)
        return (
            _EXMEM(
                instruction,
                latch.pc,
                result if result is not None else 0,
                instruction.destination_register(),
                instruction.is_load(),
                instruction.is_store(),
            ),
            None,
        )

    def _id_read(self, register: int, old_ex_mem: _EXMEM | None) -> int:
        """ID-stage register read with the EX/MEM→ID bypass.

        The register file already reflects this cycle's WB (write-through),
        covering distance >= 2 producers; the instruction currently in MEM
        forwards its EX result (non-loads; loads were stalled out).
        """
        value = self.state.read_reg(register)
        if (
            old_ex_mem is not None
            and old_ex_mem.dest == register
            and register != 0
        ):
            assert not old_ex_mem.is_load
            value = old_ex_mem.result
        return value

    @staticmethod
    def _id_stall(
        instruction: Instruction,
        in_ex: Instruction | None,
        old_ex_mem: _EXMEM | None,
        pending_hilo: tuple[int, int] | None,
    ) -> bool:
        """Hazard detection unit (see hazards.py for the rule derivation)."""
        m = instruction.mnemonic
        in_ex_dest = in_ex.destination_register() if in_ex is not None else None
        in_ex_load = in_ex.is_load() if in_ex is not None else False
        if m in BRANCHES or m in INDIRECT_JUMPS:
            for source in instruction.source_registers():
                if source == 0:
                    continue
                if in_ex_dest == source:
                    return True  # producer still in EX: value next cycle
                if (
                    old_ex_mem is not None
                    and old_ex_mem.dest == source
                    and old_ex_mem.is_load
                ):
                    return True  # load in MEM: data not yet written back
            return False
        if m in (Mnemonic.MFHI, Mnemonic.MFLO) and pending_hilo is not None:
            return True
        if in_ex_load and in_ex_dest is not None:
            # Load-use: stores need rs at EX (address) but rt only at MEM.
            if instruction.is_store():
                return instruction.rs == in_ex_dest
            return in_ex_dest in instruction.source_registers()
        return False
