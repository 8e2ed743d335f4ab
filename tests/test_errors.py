"""Exception hierarchy tests."""

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "subclass",
        [
            errors.EncodingError,
            errors.DecodingError,
            errors.AssemblerError,
            errors.LinkError,
            errors.SimulationError,
            errors.MemoryAccessError,
            errors.BreakTrap,
            errors.MonitorViolation,
            errors.ConfigurationError,
        ],
    )
    def test_all_derive_from_repro_error(self, subclass):
        assert issubclass(subclass, errors.ReproError)

    def test_memory_error_is_simulation_error(self):
        assert issubclass(errors.MemoryAccessError, errors.SimulationError)

    def test_budget_error_is_simulation_error(self):
        assert issubclass(errors.InstructionBudgetExceeded, errors.SimulationError)
        assert not issubclass(
            errors.InstructionBudgetExceeded, errors.MemoryAccessError
        )


    def test_break_trap_is_simulation_error(self):
        assert issubclass(errors.BreakTrap, errors.SimulationError)
        assert not issubclass(errors.BreakTrap, errors.InstructionBudgetExceeded)


class TestMessages:
    def test_decoding_error_fields(self):
        error = errors.DecodingError(0xDEADBEEF, address=0x400000, reason="bad")
        assert error.word == 0xDEADBEEF
        assert "0xdeadbeef" in str(error)
        assert "0x00400000" in str(error)
        assert "bad" in str(error)

    def test_assembler_error_line_prefix(self):
        assert str(errors.AssemblerError("oops", line=12)) == "line 12: oops"

    def test_simulation_error_context(self):
        error = errors.SimulationError("boom", pc=0x400004, cycle=9)
        assert "pc=0x00400004" in str(error)
        assert "cycle=9" in str(error)

    def test_monitor_violation_fields(self):
        violation = errors.MonitorViolation(0x100, 0x10C, 0xAB, 0xCD)
        assert violation.start == 0x100
        assert violation.expected == 0xAB
        assert "0x000000ab" in str(violation)

    def test_monitor_violation_absent_expected(self):
        violation = errors.MonitorViolation(0x100, 0x10C, None, 0xCD)
        assert "<absent>" in str(violation)
