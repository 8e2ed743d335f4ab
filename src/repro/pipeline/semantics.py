"""Architected instruction semantics — the single source of truth.

Both the functional ISS and the cycle-level pipeline bind into this
module, so their architected behaviour cannot diverge.  Each
instruction's behaviour is defined once: arithmetic in the
:data:`BRANCH_CONDITIONS`, :data:`ALU_OPS` and :data:`MULDIV_OPS` tables,
memory accesses in :data:`LOADS` and :data:`STORES`, and addresses by
:func:`branch_target`, :func:`jump_target`, :func:`link_value` and
:func:`effective_address`.  Neither simulator looks an instruction up
here per step: FuncSim's op records and PipelineCPU's stage records bind
the entries of one instruction word once, when the word is first
decoded.

Arithmetic wraps modulo 2**32.  MIPS's signed-overflow traps on ``add``/
``addi``/``sub`` are not modelled (the workloads never rely on them and the
paper's monitor is orthogonal to arithmetic exceptions).  Division by zero
leaves HI = LO = 0, a defined stand-in for MIPS's "unpredictable".
"""

from __future__ import annotations

from typing import Callable

from repro.isa.opcodes import Mnemonic
from repro.utils.bitops import MASK32, to_signed32

# ---------------------------------------------------------------------------
# Per-mnemonic definitions
# ---------------------------------------------------------------------------

# The tables below are the one definition of each instruction's
# arithmetic and memory access.  Every function returns a value already
# inside ``[0, 2**32)`` when its operands are, so callers may store
# results without re-masking.

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


# ---------------------------------------------------------------------------
# EX stage: load/store addresses
# ---------------------------------------------------------------------------


def effective_address(base: int, offset: int) -> int:
    """Load/store address: base register plus sign-extended offset."""
    return (base + offset) & MASK32
