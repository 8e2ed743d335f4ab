"""Architected instruction semantics — the single source of truth.

Both the functional ISS and the cycle-level pipeline call into this module,
so their architected behaviour cannot diverge.  Each instruction's
behaviour is defined once: arithmetic in the :data:`BRANCH_CONDITIONS`,
:data:`ALU_OPS` and :data:`MULDIV_OPS` tables, memory accesses in
:data:`LOADS` and :data:`STORES`, and addresses by :func:`branch_target`,
:func:`jump_target`, :func:`link_value` and :func:`effective_address`.
The functions over them are organised by pipeline stage:

* :func:`branch_taken` / :func:`control_target` — resolved in ID.
* :func:`alu_result` and :func:`muldiv_result` — the EX stage.
* :func:`load_value` / :func:`store_value` — the MEM stage.

Arithmetic wraps modulo 2**32.  MIPS's signed-overflow traps on ``add``/
``addi``/``sub`` are not modelled (the workloads never rely on them and the
paper's monitor is orthogonal to arithmetic exceptions).  Division by zero
leaves HI = LO = 0, a defined stand-in for MIPS's "unpredictable".
"""

from __future__ import annotations

from typing import Callable

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Mnemonic
from repro.isa.properties import BRANCHES, DIRECT_JUMPS, INDIRECT_JUMPS
from repro.utils.bitops import MASK32, to_signed32

# ---------------------------------------------------------------------------
# Per-mnemonic definitions
# ---------------------------------------------------------------------------

# The tables below are the one definition of each instruction's
# arithmetic and memory access.  ``PipelineCPU`` reaches them through
# :func:`branch_taken`, :func:`alu_result`, :func:`muldiv_result`,
# :func:`load_value` and :func:`store_value`; ``FuncSim`` binds the same
# functions into its predecoded op records once per instruction word.
# Every function returns a value already inside ``[0, 2**32)`` when its
# operands are, so callers may store results without re-masking.

#: Conditional branches: ``taken(rs_value, rt_value)``.
BRANCH_CONDITIONS: dict[Mnemonic, Callable[[int, int], bool]] = {
    Mnemonic.BEQ: lambda a, b: a == b,
    Mnemonic.BNE: lambda a, b: a != b,
    Mnemonic.BLEZ: lambda a, b: to_signed32(a) <= 0,
    Mnemonic.BGTZ: lambda a, b: to_signed32(a) > 0,
    Mnemonic.BLTZ: lambda a, b: to_signed32(a) < 0,
    Mnemonic.BGEZ: lambda a, b: to_signed32(a) >= 0,
}

# Operand forms of the ALU table: which instruction fields feed ``(a, b)``.
#: ``(rs_value, rt_value)``
REG_REG = "reg-reg"
#: ``(rs_value, imm)`` — ``imm`` as decoded (sign- or zero-extended).
REG_IMM = "reg-imm"
#: ``(rt_value, shamt)``
SHIFT_IMM = "shift-imm"
#: ``(rt_value, rs_value)`` — the shift amount is the low 5 bits of ``b``.
SHIFT_REG = "shift-reg"

#: EX-stage register-writing operations: ``mnemonic -> (form, fn(a, b))``.
ALU_OPS: dict[Mnemonic, tuple[str, Callable[[int, int], int]]] = {
    Mnemonic.ADD: (REG_REG, lambda a, b: (a + b) & MASK32),
    Mnemonic.ADDU: (REG_REG, lambda a, b: (a + b) & MASK32),
    Mnemonic.SUB: (REG_REG, lambda a, b: (a - b) & MASK32),
    Mnemonic.SUBU: (REG_REG, lambda a, b: (a - b) & MASK32),
    Mnemonic.AND: (REG_REG, lambda a, b: a & b),
    Mnemonic.OR: (REG_REG, lambda a, b: a | b),
    Mnemonic.XOR: (REG_REG, lambda a, b: a ^ b),
    Mnemonic.NOR: (REG_REG, lambda a, b: ~(a | b) & MASK32),
    Mnemonic.SLT: (
        REG_REG, lambda a, b: 1 if to_signed32(a) < to_signed32(b) else 0
    ),
    Mnemonic.SLTU: (
        REG_REG, lambda a, b: 1 if (a & MASK32) < (b & MASK32) else 0
    ),
    Mnemonic.SLL: (SHIFT_IMM, lambda a, b: (a << b) & MASK32),
    Mnemonic.SRL: (SHIFT_IMM, lambda a, b: (a & MASK32) >> b),
    Mnemonic.SRA: (SHIFT_IMM, lambda a, b: (to_signed32(a) >> b) & MASK32),
    Mnemonic.SLLV: (SHIFT_REG, lambda a, b: (a << (b & 31)) & MASK32),
    Mnemonic.SRLV: (SHIFT_REG, lambda a, b: (a & MASK32) >> (b & 31)),
    Mnemonic.SRAV: (
        SHIFT_REG, lambda a, b: (to_signed32(a) >> (b & 31)) & MASK32
    ),
    Mnemonic.ADDI: (REG_IMM, lambda a, b: (a + b) & MASK32),
    Mnemonic.ADDIU: (REG_IMM, lambda a, b: (a + b) & MASK32),
    Mnemonic.SLTI: (REG_IMM, lambda a, b: 1 if to_signed32(a) < b else 0),
    Mnemonic.SLTIU: (
        REG_IMM, lambda a, b: 1 if (a & MASK32) < (b & MASK32) else 0
    ),
    Mnemonic.ANDI: (REG_IMM, lambda a, b: a & b),
    Mnemonic.ORI: (REG_IMM, lambda a, b: a | b),
    Mnemonic.XORI: (REG_IMM, lambda a, b: a ^ b),
    Mnemonic.LUI: (REG_IMM, lambda a, b: (b << 16) & MASK32),
}


def _signed_divide(a: int, b: int) -> tuple[int, int]:
    dividend, divisor = to_signed32(a), to_signed32(b)
    if divisor == 0:
        return (0, 0)
    quotient = abs(dividend) // abs(divisor)
    if (dividend < 0) != (divisor < 0):
        quotient = -quotient
    remainder = dividend - quotient * divisor
    return (remainder & MASK32, quotient & MASK32)


def _unsigned_divide(a: int, b: int) -> tuple[int, int]:
    dividend, divisor = a & MASK32, b & MASK32
    if divisor == 0:
        return (0, 0)
    return (dividend % divisor, dividend // divisor)


def _signed_multiply(a: int, b: int) -> tuple[int, int]:
    product = to_signed32(a) * to_signed32(b)
    return ((product >> 32) & MASK32, product & MASK32)


def _unsigned_multiply(a: int, b: int) -> tuple[int, int]:
    product = (a & MASK32) * (b & MASK32)
    return ((product >> 32) & MASK32, product & MASK32)


#: Multiply/divide unit: ``(hi, lo) = fn(rs_value, rt_value)``.
MULDIV_OPS: dict[Mnemonic, Callable[[int, int], tuple[int, int]]] = {
    Mnemonic.MULT: _signed_multiply,
    Mnemonic.MULTU: _unsigned_multiply,
    Mnemonic.DIV: _signed_divide,
    Mnemonic.DIVU: _unsigned_divide,
}


#: MEM-stage reads: ``value = load(memory, address)``.  ``lb``/``lh``
#: sign-extend; every value is returned inside ``[0, 2**32)``.
LOADS: dict[Mnemonic, Callable[[object, int], int]] = {
    Mnemonic.LB: lambda memory, address: (
        memory.read_byte(address, True) & MASK32
    ),
    Mnemonic.LBU: lambda memory, address: memory.read_byte(address),
    Mnemonic.LH: lambda memory, address: (
        memory.read_half(address, True) & MASK32
    ),
    Mnemonic.LHU: lambda memory, address: memory.read_half(address),
    Mnemonic.LW: lambda memory, address: memory.read_word(address),
}

#: MEM-stage writes: ``store(memory, address, value)``; the low byte,
#: half or word of ``value`` is written.
STORES: dict[Mnemonic, Callable[[object, int, int], None]] = {
    Mnemonic.SB: lambda memory, address, value: memory.write_byte(
        address, value
    ),
    Mnemonic.SH: lambda memory, address, value: memory.write_half(
        address, value
    ),
    Mnemonic.SW: lambda memory, address, value: memory.write_word(
        address, value
    ),
}


# ---------------------------------------------------------------------------
# ID stage: control flow resolution
# ---------------------------------------------------------------------------


def branch_target(address: int, imm: int) -> int:
    """Taken target of the conditional branch at *address* (no delay slots)."""
    return (address + 4 + (imm << 2)) & MASK32


def jump_target(address: int, target: int) -> int:
    """Target of the j/jal at *address*: *target* words into the 256 MiB
    region of the next instruction."""
    return ((address + 4) & 0xF0000000) | (target << 2)


def link_value(address: int) -> int:
    """Return address stored by jal/jalr at *address* (no delay slots)."""
    return (address + 4) & MASK32


def branch_taken(instruction: Instruction, rs_value: int, rt_value: int) -> bool:
    """Whether a conditional branch is taken given its operand values."""
    condition = BRANCH_CONDITIONS.get(instruction.mnemonic)
    if condition is None:
        raise ValueError(f"{instruction.mnemonic} is not a conditional branch")
    return condition(rs_value, rt_value)


def control_target(
    instruction: Instruction, address: int, rs_value: int
) -> int | None:
    """Redirect target of the control-flow instruction at *address*.

    Returns ``None`` for non-control-flow instructions and for traps
    (syscall/break continue at PC+4 after the OS returns).  For conditional
    branches this is the *taken* target; the caller combines it with
    :func:`branch_taken`.
    """
    m = instruction.mnemonic
    if m in BRANCHES:
        return branch_target(address, instruction.imm)
    if m in DIRECT_JUMPS:
        return jump_target(address, instruction.target)
    if m in INDIRECT_JUMPS:
        return rs_value & MASK32
    return None


# ---------------------------------------------------------------------------
# EX stage: ALU
# ---------------------------------------------------------------------------


def effective_address(base: int, offset: int) -> int:
    """Load/store address: base register plus sign-extended offset."""
    return (base + offset) & MASK32


def alu_result(
    instruction: Instruction, rs_value: int, rt_value: int
) -> int | None:
    """EX-stage result (register value or memory address), or ``None``.

    For loads and stores this is the effective address.  Link values
    (``jal``/``jalr``) are resolved in ID by :func:`link_value`.
    """
    entry = ALU_OPS.get(instruction.mnemonic)
    if entry is None:
        if instruction.is_load() or instruction.is_store():
            return effective_address(rs_value, instruction.imm)
        return None
    form, fn = entry
    if form is REG_REG:
        return fn(rs_value, rt_value)
    if form is REG_IMM:
        return fn(rs_value, instruction.imm)
    if form is SHIFT_IMM:
        return fn(rt_value, instruction.shamt)
    return fn(rt_value, rs_value)


def muldiv_result(
    instruction: Instruction, rs_value: int, rt_value: int
) -> tuple[int, int] | None:
    """(hi, lo) produced by a multiply/divide, or ``None``."""
    fn = MULDIV_OPS.get(instruction.mnemonic)
    return None if fn is None else fn(rs_value, rt_value)


# ---------------------------------------------------------------------------
# MEM stage
# ---------------------------------------------------------------------------


def load_value(instruction: Instruction, memory, address: int) -> int:
    """Perform the MEM-stage read for a load instruction."""
    return LOADS[instruction.mnemonic](memory, address)


def store_value(instruction: Instruction, memory, address: int, value: int) -> None:
    """Perform the MEM-stage write for a store instruction."""
    STORES[instruction.mnemonic](memory, address, value)
