"""Architected semantics tests (shared by both simulators)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pipeline import semantics
from repro.pipeline.memory import Memory
from repro.isa.encoding import decode, encode_fields
from repro.isa.opcodes import Mnemonic
from repro.utils.bitops import MASK32, to_signed32

words = st.integers(min_value=0, max_value=MASK32)


def _make(mnemonic, **kwargs):
    return decode(encode_fields(mnemonic, **kwargs))


class TestAlu:
    @given(a=words, b=words)
    def test_addu_wraps(self, a, b):
        result = semantics.alu_result(_make(Mnemonic.ADDU), a, b)
        assert result == (a + b) & MASK32

    @given(a=words, b=words)
    def test_subu_wraps(self, a, b):
        result = semantics.alu_result(_make(Mnemonic.SUBU), a, b)
        assert result == (a - b) & MASK32

    @given(a=words, b=words)
    def test_logic_ops(self, a, b):
        assert semantics.alu_result(_make(Mnemonic.AND), a, b) == a & b
        assert semantics.alu_result(_make(Mnemonic.OR), a, b) == a | b
        assert semantics.alu_result(_make(Mnemonic.XOR), a, b) == a ^ b
        assert semantics.alu_result(_make(Mnemonic.NOR), a, b) == ~(a | b) & MASK32

    @given(a=words, b=words)
    def test_slt_signed(self, a, b):
        result = semantics.alu_result(_make(Mnemonic.SLT), a, b)
        assert result == int(to_signed32(a) < to_signed32(b))

    @given(a=words, b=words)
    def test_sltu_unsigned(self, a, b):
        assert semantics.alu_result(_make(Mnemonic.SLTU), a, b) == int(a < b)

    @given(value=words, shamt=st.integers(min_value=0, max_value=31))
    def test_shifts(self, value, shamt):
        sll = semantics.alu_result(_make(Mnemonic.SLL, shamt=shamt), 0, value)
        srl = semantics.alu_result(_make(Mnemonic.SRL, shamt=shamt), 0, value)
        sra = semantics.alu_result(_make(Mnemonic.SRA, shamt=shamt), 0, value)
        assert sll == (value << shamt) & MASK32
        assert srl == value >> shamt
        assert sra == (to_signed32(value) >> shamt) & MASK32

    @given(value=words, amount=words)
    def test_variable_shifts_use_low_5_bits(self, value, amount):
        sllv = semantics.alu_result(_make(Mnemonic.SLLV), amount, value)
        assert sllv == (value << (amount & 31)) & MASK32

    def test_lui(self):
        assert semantics.alu_result(_make(Mnemonic.LUI, imm=0x1234), 0, 0) == 0x12340000

    def test_sra_sign_fill(self):
        result = semantics.alu_result(_make(Mnemonic.SRA, shamt=4), 0, 0x80000000)
        assert result == 0xF8000000

    def test_non_alu_returns_none(self):
        assert semantics.alu_result(_make(Mnemonic.SYSCALL), 0, 0) is None

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
        hi, lo = semantics.muldiv_result(_make(Mnemonic.MULTU), a, b)
        assert (hi << 32) | lo == a * b

    @given(a=words, b=words)
    def test_mult_signed(self, a, b):
        hi, lo = semantics.muldiv_result(_make(Mnemonic.MULT), a, b)
        product = to_signed32(a) * to_signed32(b)
        assert ((hi << 32) | lo) == product & ((1 << 64) - 1)

    def test_div_truncates_toward_zero(self):
        instruction = _make(Mnemonic.DIV)
        hi, lo = semantics.muldiv_result(instruction, (-7) & MASK32, 2)
        assert to_signed32(lo) == -3  # C-style, not Python floor
        assert to_signed32(hi) == -1

    @given(a=words, b=st.integers(min_value=1, max_value=MASK32))
    def test_divu(self, a, b):
        hi, lo = semantics.muldiv_result(_make(Mnemonic.DIVU), a, b)
        assert lo == a // b
        assert hi == a % b

    def test_div_by_zero_defined(self):
        assert semantics.muldiv_result(_make(Mnemonic.DIV), 5, 0) == (0, 0)
        assert semantics.muldiv_result(_make(Mnemonic.DIVU), 5, 0) == (0, 0)

    @given(a=words, b=st.integers(min_value=1, max_value=MASK32).map(lambda v: v | 1))
    def test_div_identity(self, a, b):
        hi, lo = semantics.muldiv_result(_make(Mnemonic.DIV), a, b)
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
        assert semantics.branch_taken(_make(Mnemonic.BEQ), a, b) == (a == b)
        assert semantics.branch_taken(_make(Mnemonic.BNE), a, b) == (a != b)

    @given(a=words)
    def test_zero_compares(self, a):
        signed = to_signed32(a)
        assert semantics.branch_taken(_make(Mnemonic.BLEZ), a, 0) == (signed <= 0)
        assert semantics.branch_taken(_make(Mnemonic.BGTZ), a, 0) == (signed > 0)
        assert semantics.branch_taken(_make(Mnemonic.BLTZ), a, 0) == (signed < 0)
        assert semantics.branch_taken(_make(Mnemonic.BGEZ), a, 0) == (signed >= 0)

    def test_non_branch_rejected(self):
        with pytest.raises(ValueError):
            semantics.branch_taken(_make(Mnemonic.ADD), 0, 0)


class TestControlTargets:
    def test_branch_target(self):
        instruction = _make(Mnemonic.BEQ, imm=-1)
        assert semantics.control_target(instruction, 0x400004, 0) == 0x400004

    def test_jr_target_is_register(self):
        instruction = _make(Mnemonic.JR, rs=31)
        assert semantics.control_target(instruction, 0x400000, 0x1234) == 0x1234

    def test_trap_has_no_target(self):
        assert semantics.control_target(_make(Mnemonic.SYSCALL), 0x400000, 0) is None

    def test_link_value(self):
        assert semantics.link_value(0x400000) == 0x400004

    def test_jump_target_keeps_region(self):
        instruction = _make(Mnemonic.J, target=0x0100004)
        assert semantics.control_target(instruction, 0x10400000, 0) == 0x10400010


class TestMemoryAccess:
    """``LOADS``/``STORES`` are the one definition of access width,
    sign-extension and masking that both simulators bind."""

    BASE = 0x10010000

    def _load(self, mnemonic, memory, address):
        return semantics.load_value(_make(mnemonic), memory, address)

    def _store(self, mnemonic, memory, address, value):
        semantics.store_value(_make(mnemonic), memory, address, value)

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
