"""Architected semantics tests (shared by both simulators)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pipeline import semantics
from repro.pipeline.cpu import stage_record
from repro.pipeline.funcsim import op_record
from repro.pipeline.memory import Memory
from repro.isa.encoding import decode, encode_fields
from repro.isa.opcodes import Mnemonic
from repro.utils.bitops import MASK32, to_signed32

words = st.integers(min_value=0, max_value=MASK32)


def _make(mnemonic, **kwargs):
    return decode(encode_fields(mnemonic, **kwargs))


def _alu(mnemonic, a, b):
    """The :data:`semantics.ALU_OPS` function of *mnemonic* on ``(a, b)``."""
    _form, fn = semantics.ALU_OPS[mnemonic]
    return fn(a, b)


def _muldiv(mnemonic, a, b):
    return semantics.MULDIV_OPS[mnemonic](a, b)


def _taken(mnemonic, a, b):
    return semantics.BRANCH_CONDITIONS[mnemonic](a, b)


def _stages(instruction):
    """The pipeline's stage record of *instruction*."""
    return stage_record(instruction, op_record(instruction))


class TestAlu:
    @given(a=words, b=words)
    def test_addu_wraps(self, a, b):
        assert _alu(Mnemonic.ADDU, a, b) == (a + b) & MASK32

    @given(a=words, b=words)
    def test_subu_wraps(self, a, b):
        assert _alu(Mnemonic.SUBU, a, b) == (a - b) & MASK32

    @given(a=words, b=words)
    def test_logic_ops(self, a, b):
        assert _alu(Mnemonic.AND, a, b) == a & b
        assert _alu(Mnemonic.OR, a, b) == a | b
        assert _alu(Mnemonic.XOR, a, b) == a ^ b
        assert _alu(Mnemonic.NOR, a, b) == ~(a | b) & MASK32

    @given(a=words, b=words)
    def test_slt_signed(self, a, b):
        assert _alu(Mnemonic.SLT, a, b) == int(to_signed32(a) < to_signed32(b))

    @given(a=words, b=words)
    def test_sltu_unsigned(self, a, b):
        assert _alu(Mnemonic.SLTU, a, b) == int(a < b)

    @given(value=words, shamt=st.integers(min_value=0, max_value=31))
    def test_shifts(self, value, shamt):
        # Shift-immediate form: (rt_value, shamt).
        assert _alu(Mnemonic.SLL, value, shamt) == (value << shamt) & MASK32
        assert _alu(Mnemonic.SRL, value, shamt) == value >> shamt
        assert _alu(Mnemonic.SRA, value, shamt) == (
            (to_signed32(value) >> shamt) & MASK32
        )

    @given(value=words, amount=words)
    def test_variable_shifts_use_low_5_bits(self, value, amount):
        # Shift-register form: (rt_value, rs_value).
        assert _alu(Mnemonic.SLLV, value, amount) == (value << (amount & 31)) & MASK32

    def test_lui(self):
        assert _alu(Mnemonic.LUI, 0, 0x1234) == 0x12340000

    def test_sra_sign_fill(self):
        assert _alu(Mnemonic.SRA, 0x80000000, 4) == 0xF8000000

    def test_non_alu_returns_none(self):
        # Traps compute nothing: no ALU entry, and EX yields 0.
        assert Mnemonic.SYSCALL not in semantics.ALU_OPS
        assert _stages(_make(Mnemonic.SYSCALL)).handler(7, 9) == 0

    @pytest.mark.parametrize("mnemonic", sorted(semantics.ALU_OPS, key=str))
    @given(a=words, b=words)
    def test_table_results_stay_32_bit(self, mnemonic, a, b):
        """FuncSim stores table results without re-masking."""
        form, fn = semantics.ALU_OPS[mnemonic]
        if form is semantics.SHIFT_IMM:
            b &= 31
        elif form is semantics.REG_IMM:
            b = to_signed32(b) >> 16  # a decoded 16-bit immediate
            if mnemonic in (Mnemonic.ANDI, Mnemonic.ORI, Mnemonic.XORI, Mnemonic.LUI):
                b &= 0xFFFF
        assert 0 <= fn(a, b) <= MASK32


class TestMulDiv:
    @given(a=words, b=words)
    def test_multu(self, a, b):
        hi, lo = _muldiv(Mnemonic.MULTU, a, b)
        assert (hi << 32) | lo == a * b

    @given(a=words, b=words)
    def test_mult_signed(self, a, b):
        hi, lo = _muldiv(Mnemonic.MULT, a, b)
        product = to_signed32(a) * to_signed32(b)
        assert ((hi << 32) | lo) == product & ((1 << 64) - 1)

    def test_div_truncates_toward_zero(self):
        hi, lo = _muldiv(Mnemonic.DIV, (-7) & MASK32, 2)
        assert to_signed32(lo) == -3  # C-style, not Python floor
        assert to_signed32(hi) == -1

    @given(a=words, b=st.integers(min_value=1, max_value=MASK32))
    def test_divu(self, a, b):
        hi, lo = _muldiv(Mnemonic.DIVU, a, b)
        assert lo == a // b
        assert hi == a % b

    def test_div_by_zero_defined(self):
        assert _muldiv(Mnemonic.DIV, 5, 0) == (0, 0)
        assert _muldiv(Mnemonic.DIVU, 5, 0) == (0, 0)

    @given(a=words, b=st.integers(min_value=1, max_value=MASK32).map(lambda v: v | 1))
    def test_div_identity(self, a, b):
        hi, lo = _muldiv(Mnemonic.DIV, a, b)
        quotient, remainder = to_signed32(lo), to_signed32(hi)
        sa, sb = to_signed32(a), to_signed32(b)
        if sa == -(1 << 31) and sb == -1:
            # The one overflowing quotient (2**31) wraps to INT_MIN.
            assert (lo, hi) == (0x80000000, 0)
        else:
            assert quotient * sb + remainder == sa


class TestBranches:
    @given(a=words, b=words)
    def test_beq_bne(self, a, b):
        assert _taken(Mnemonic.BEQ, a, b) == (a == b)
        assert _taken(Mnemonic.BNE, a, b) == (a != b)

    @given(a=words)
    def test_zero_compares(self, a):
        signed = to_signed32(a)
        assert _taken(Mnemonic.BLEZ, a, 0) == (signed <= 0)
        assert _taken(Mnemonic.BGTZ, a, 0) == (signed > 0)
        assert _taken(Mnemonic.BLTZ, a, 0) == (signed < 0)
        assert _taken(Mnemonic.BGEZ, a, 0) == (signed >= 0)

    def test_non_branch_rejected(self):
        # Only conditional branches carry a condition (and a taken target).
        assert Mnemonic.ADD not in semantics.BRANCH_CONDITIONS
        assert _stages(_make(Mnemonic.ADD)).resolve is None


class TestControlTargets:
    """The ID-stage redirect each stage record binds."""

    def test_branch_target(self):
        resolve = _stages(_make(Mnemonic.BEQ, imm=-1)).resolve
        assert semantics.branch_target(0x400004, -1) == 0x400004
        assert resolve(0x400004, 5, 5) == 0x400004
        assert resolve(0x400004, 5, 6) is None  # not taken

    def test_jr_target_is_register(self):
        record = _stages(_make(Mnemonic.JR, rs=31))
        assert record.id_a == 31
        assert record.resolve(0x400000, 0x1234, 0) == 0x1234

    def test_trap_has_no_target(self):
        assert _stages(_make(Mnemonic.SYSCALL)).resolve is None

    def test_link_value(self):
        assert semantics.link_value(0x400000) == 0x400004

    def test_jump_target_keeps_region(self):
        resolve = _stages(_make(Mnemonic.J, target=0x0100004)).resolve
        assert semantics.jump_target(0x10400000, 0x0100004) == 0x10400010
        assert resolve(0x10400000, 0, 0) == 0x10400010


class TestMemoryAccess:
    """``LOADS``/``STORES`` are the one definition of access width,
    sign-extension and masking that both simulators bind."""

    BASE = 0x10010000

    def _load(self, mnemonic, memory, address):
        return semantics.LOADS[mnemonic](memory, address)

    def _store(self, mnemonic, memory, address, value):
        semantics.STORES[mnemonic](memory, address, value)

    def test_byte_loads_sign_and_zero_extend(self):
        memory = Memory()
        self._store(Mnemonic.SB, memory, self.BASE, 0x1280)
        assert self._load(Mnemonic.LB, memory, self.BASE) == 0xFFFFFF80
        assert self._load(Mnemonic.LBU, memory, self.BASE) == 0x80

    def test_half_loads_sign_and_zero_extend(self):
        memory = Memory()
        self._store(Mnemonic.SH, memory, self.BASE, 0x12348001)
        assert self._load(Mnemonic.LH, memory, self.BASE) == 0xFFFF8001
        assert self._load(Mnemonic.LHU, memory, self.BASE) == 0x8001

    def test_word_round_trip(self):
        memory = Memory()
        self._store(Mnemonic.SW, memory, self.BASE, 0xDEADBEEF)
        assert self._load(Mnemonic.LW, memory, self.BASE) == 0xDEADBEEF

    def test_tables_cover_every_load_and_store(self):
        assert set(semantics.LOADS) == {
            Mnemonic.LB, Mnemonic.LBU, Mnemonic.LH, Mnemonic.LHU, Mnemonic.LW
        }
        assert set(semantics.STORES) == {Mnemonic.SB, Mnemonic.SH, Mnemonic.SW}
