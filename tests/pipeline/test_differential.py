"""Differential tests: FuncSim vs PipelineCPU on a program corpus.

The functional simulator's scoreboard and the stage-latch pipeline must
agree on cycles, console, instruction counts, block traces, architected
registers, and memory effects — for handcrafted corner programs, for
hypothesis-generated ALU programs, for generated programs that reach every
kind of FuncSim op-record handler (bare and monitored), and (in
test_workloads_differential) for every workload.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm.assembler import assemble
from repro.osmodel.loader import load_process
from repro.pipeline.cpu import PipelineCPU
from repro.pipeline.funcsim import FuncSim

from tests.conftest import examples, run_both

CORPUS = {
    "dependent-chain": """
        li $t0, 1
        addi $t1, $t0, 2
        add $t2, $t1, $t0
        sub $t3, $t2, $t1
        xor $a0, $t3, $t2
        li $v0, 1
        syscall
    """,
    "load-use-chains": """
        .data
    arr: .word 3, 1, 4, 1, 5
        .text
        la $t9, arr
        lw $t0, 0($t9)
        lw $t1, 4($t9)
        addu $t2, $t0, $t1
        lw $t3, 8($t9)
        addu $t2, $t2, $t3
        sw $t2, 16($t9)
        lw $a0, 16($t9)
        li $v0, 1
        syscall
    """,
    "branch-dance": """
        li $t0, 0
        li $t1, 6
    top:
        andi $t2, $t1, 1
        beqz $t2, even
        addi $t0, $t0, 100
        j next
    even:
        addi $t0, $t0, 1
    next:
        addi $t1, $t1, -1
        bgtz $t1, top
        move $a0, $t0
        li $v0, 1
        syscall
    """,
    "muldiv-pressure": """
        li $t0, 123456
        li $t1, 789
        div $t2, $t0, $t1
        rem $t3, $t0, $t1
        mul $t4, $t2, $t1
        addu $t4, $t4, $t3
        move $a0, $t4
        li $v0, 1
        syscall
    """,
    "call-tree": """
        li $a0, 4
        jal fib
        move $a0, $v0
        li $v0, 1
        syscall
        j end
    fib:
        li $v0, 1
        li $t0, 2
        blt $a0, $t0, fib_ret
        addi $sp, $sp, -12
        sw $ra, 0($sp)
        sw $a0, 4($sp)
        addi $a0, $a0, -1
        jal fib
        sw $v0, 8($sp)
        lw $a0, 4($sp)
        addi $a0, $a0, -2
        jal fib
        lw $t1, 8($sp)
        addu $v0, $v0, $t1
        lw $ra, 0($sp)
        addi $sp, $sp, 12
    fib_ret:
        jr $ra
    end:
    """,
    "store-forward-mix": """
        .data
    buf: .space 16
        .text
        la $t9, buf
        li $t0, 0x11
        sw $t0, 0($t9)
        lw $t1, 0($t9)
        sw $t1, 4($t9)
        lb $t2, 4($t9)
        sb $t2, 8($t9)
        lw $a0, 8($t9)
        li $v0, 1
        syscall
    """,
    "jr-through-table": """
        .data
    table: .word f1, f2
        .text
        la $t9, table
        lw $t0, 0($t9)
        jalr $t0
        move $s0, $v0
        lw $t0, 4($t9)
        jalr $t0
        addu $a0, $s0, $v0
        li $v0, 1
        syscall
        j end
    f1: li $v0, 10
        jr $ra
    f2: li $v0, 32
        jr $ra
    end:
    """,
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_program_equivalence(name):
    program = assemble(CORPUS[name] + "\nli $v0, 10\nsyscall\n", name=name)
    func_result, pipe_result = run_both(program, collect_trace=True)
    assert [e.key for e in func_result.block_trace] == [
        e.key for e in pipe_result.block_trace
    ]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_final_state_equivalence(name):
    program = assemble(CORPUS[name] + "\nli $v0, 10\nsyscall\n", name=name)
    func_sim = FuncSim(program)
    pipe_sim = PipelineCPU(program)
    func_sim.run()
    pipe_sim.run()
    assert func_sim.state.regs == pipe_sim.state.regs
    assert func_sim.state.hi == pipe_sim.state.hi
    assert func_sim.state.lo == pipe_sim.state.lo


_ALU_OPS = ["addu", "subu", "and", "or", "xor", "nor", "slt", "sltu"]
_IMM_OPS = ["addiu", "andi", "ori", "xori", "slti"]


@st.composite
def alu_programs(draw):
    """Random straight-line ALU programs over $t0-$t7."""
    lines = ["        li $t0, %d" % draw(st.integers(-1000, 1000))]
    for register in range(1, 8):
        lines.append(
            "        li $t%d, %d" % (register, draw(st.integers(-1000, 1000)))
        )
    count = draw(st.integers(min_value=3, max_value=25))
    for _ in range(count):
        if draw(st.booleans()):
            op = draw(st.sampled_from(_ALU_OPS))
            rd, rs, rt = (draw(st.integers(0, 7)) for _ in range(3))
            lines.append(f"        {op} $t{rd}, $t{rs}, $t{rt}")
        else:
            op = draw(st.sampled_from(_IMM_OPS))
            rt, rs = draw(st.integers(0, 7)), draw(st.integers(0, 7))
            imm = draw(st.integers(0, 255))
            lines.append(f"        {op} $t{rt}, $t{rs}, {imm}")
    lines.append("        move $a0, $t%d" % draw(st.integers(0, 7)))
    lines.append("        li $v0, 1")
    lines.append("        syscall")
    lines.append("        li $v0, 10")
    lines.append("        syscall")
    return "\n".join(lines)


@settings(max_examples=examples(30), deadline=None)
@given(source=alu_programs())
def test_random_alu_programs_equivalent(source):
    program = assemble(source)
    run_both(program)


# ---------------------------------------------------------------------------
# Every op-record handler: memory, multiply/divide, shifts, control flow
# ---------------------------------------------------------------------------

_TEMPS = [f"$t{index}" for index in range(8)]
#: Destinations include $zero: writes to it must be dropped by both engines.
_DESTS = _TEMPS + ["$zero"]
_REG_OPS = ["add", "addu", "sub", "subu", "and", "or", "xor", "nor", "slt", "sltu"]
_SHIFT_OPS = ["sll", "srl", "sra"]
_SHIFTV_OPS = ["sllv", "srlv", "srav"]
_SIGNED_IMM_OPS = ["addi", "addiu", "slti", "sltiu"]
_LOGIC_IMM_OPS = ["andi", "ori", "xori"]
#: (mnemonic, access size): offsets into the 64-byte buffer stay aligned.
_LOADS = [("lb", 1), ("lbu", 1), ("lh", 2), ("lhu", 2), ("lw", 4)]
_STORES = [("sb", 1), ("sh", 2), ("sw", 4)]
_MULDIV = ["mult", "multu", "div", "divu"]
_ZERO_BRANCHES = ["blez", "bgtz", "bltz", "bgez"]
_KINDS = [
    "reg", "shift", "shiftv", "imm", "logic", "lui", "load", "store",
    "muldiv", "hilo", "branch", "jump", "call", "indirect", "load-use",
    "muldiv-use",
]

#: Register values that hit sign, overflow and divide-by-zero edges.
_values = st.one_of(
    st.sampled_from([0, 1, -1, 2, 0x7FFFFFFF, -0x80000000, 0xFFFF, 0x8000]),
    st.integers(-(1 << 31), (1 << 32) - 1),
)


@st.composite
def isa_programs(draw):
    """Terminating programs over every instruction class.

    Branches and indirect jumps only go forward, and calls land in leaf
    subroutines placed after the exit, so every program terminates.  The
    data buffer starts with random bytes, so loads see both signs.
    """
    buffer = draw(st.lists(st.integers(0, 0xFFFFFFFF), min_size=16, max_size=16))
    lines = [
        "        .data",
        "    buf: .word " + ", ".join(str(word) for word in buffer),
        "        .text",
        "        la $s0, buf",
    ]
    for register in _TEMPS:
        lines.append(f"        li {register}, {draw(_values)}")
    subroutines: list[list[str]] = []
    labels = 0
    #: Forward targets still open: [instructions left to skip, label].
    open_targets: list[list] = []
    #: Targets of the item being emitted; they open after it.
    new_targets: list[list] = []

    def reg():
        return draw(st.sampled_from(_TEMPS))

    def dest():
        return draw(st.sampled_from(_DESTS))

    def forward_label():
        nonlocal labels
        labels += 1
        label = f"fwd{labels}"
        new_targets.append([draw(st.integers(0, 3)), label])
        return label

    def alu_line():
        op = draw(st.sampled_from(_REG_OPS))
        return f"        {op} {dest()}, {reg()}, {reg()}"

    for _ in range(draw(st.integers(min_value=4, max_value=36))):
        kind = draw(st.sampled_from(_KINDS))
        if kind == "reg":
            emitted = [alu_line()]
        elif kind == "shift":
            op = draw(st.sampled_from(_SHIFT_OPS))
            emitted = [f"        {op} {dest()}, {reg()}, {draw(st.integers(0, 31))}"]
        elif kind == "shiftv":
            op = draw(st.sampled_from(_SHIFTV_OPS))
            emitted = [f"        {op} {dest()}, {reg()}, {reg()}"]
        elif kind == "imm":
            op = draw(st.sampled_from(_SIGNED_IMM_OPS))
            imm = draw(st.integers(-32768, 32767))
            emitted = [f"        {op} {dest()}, {reg()}, {imm}"]
        elif kind == "logic":
            op = draw(st.sampled_from(_LOGIC_IMM_OPS))
            imm = draw(st.integers(0, 0xFFFF))
            emitted = [f"        {op} {dest()}, {reg()}, {imm}"]
        elif kind == "lui":
            emitted = [f"        lui {dest()}, {draw(st.integers(0, 0xFFFF))}"]
        elif kind == "load":
            op, size = draw(st.sampled_from(_LOADS))
            offset = draw(st.integers(0, 64 // size - 1)) * size
            emitted = [f"        {op} {dest()}, {offset}($s0)"]
        elif kind == "store":
            op, size = draw(st.sampled_from(_STORES))
            offset = draw(st.integers(0, 64 // size - 1)) * size
            emitted = [f"        {op} {reg()}, {offset}($s0)"]
        elif kind == "muldiv":
            op = draw(st.sampled_from(_MULDIV))
            # $zero as divisor pins the divide-by-zero convention.
            divisor = draw(st.sampled_from(_TEMPS + ["$zero"]))
            emitted = [f"        {op} {reg()}, {divisor}"]
        elif kind == "hilo":
            op = draw(st.sampled_from(["mfhi", "mflo", "mthi", "mtlo"]))
            operand = dest() if op.startswith("mf") else reg()
            emitted = [f"        {op} {operand}"]
        elif kind == "branch":
            op = draw(st.sampled_from(["beq", "bne"] + _ZERO_BRANCHES))
            operands = f"{reg()}, {reg()}" if op in ("beq", "bne") else reg()
            emitted = [f"        {op} {operands}, {forward_label()}"]
        elif kind == "jump":
            emitted = [f"        j {forward_label()}"]
        elif kind == "call":
            body = [alu_line() for _ in range(draw(st.integers(0, 3)))]
            name = f"sub{len(subroutines)}"
            via = draw(st.sampled_from(["jal", "jalr $t9", "jalr $s1, $t9"]))
            link = "$s1" if via == "jalr $s1, $t9" else "$ra"
            subroutines.append([f"    {name}:", *body, f"        jr {link}"])
            if via == "jal":
                emitted = [f"        jal {name}"]
            else:
                emitted = [f"        la $t9, {name}", f"        {via}"]
        elif kind == "load-use":
            # A load and an immediate consumer of its register, through
            # each scoreboard read mode: EX operand, store data (read in
            # MEM), store base, ID-stage branch operand, HI/LO move.
            offset = draw(st.integers(0, 15)) * 4
            use = draw(st.sampled_from(["alu", "data", "base", "branch", "move"]))
            loaded = reg()
            emitted = []
            if use == "alu":
                consumer = f"addu {dest()}, {loaded}, {reg()}"
            elif use == "data":
                consumer = f"sw {loaded}, {draw(st.integers(0, 15)) * 4}($s0)"
            elif use == "base":
                # The loaded word is the buffer's own address.
                loaded = "$s2"
                emitted = ["        la $s2, buf", f"        sw $s2, {offset}($s0)"]
                consumer = f"sb {reg()}, {draw(st.integers(0, 63))}($s2)"
            elif use == "branch":
                consumer = f"bne {loaded}, {reg()}, {forward_label()}"
            else:
                consumer = f"mtlo {loaded}"
            emitted += [f"        lw {loaded}, {offset}($s0)", f"        {consumer}"]
        elif kind == "muldiv-use":
            # HI/LO read while the unit is still busy (the pipeline's
            # interlock on pending HI/LO), sometimes before a taken jump.
            op = draw(st.sampled_from(_MULDIV))
            read = draw(st.sampled_from(["mfhi", "mflo"]))
            emitted = [f"        {op} {reg()}, {reg()}", f"        {read} {dest()}"]
            if draw(st.booleans()):
                emitted.append(f"        j {forward_label()}")
        else:  # indirect forward jump: jr, or jalr linking into $zero
            via = draw(st.sampled_from(["jr $t9", "jalr $zero, $t9"]))
            target = forward_label()
            emitted = [f"        la $t9, {target}", f"        {via}"]
        # Labels land between items, never inside one: a jump into the
        # middle of "la $t9, X; jr $t9" would reuse a stale $t9.
        lines.extend(emitted)
        for pending in open_targets:
            pending[0] -= len(emitted)
        lines.extend(f"    {label}:" for left, label in open_targets if left < 0)
        open_targets[:] = [pending for pending in open_targets if pending[0] >= 0]
        open_targets.extend(new_targets)
        new_targets.clear()
    lines.extend(f"    {label}:" for _, label in open_targets)
    lines.append(f"        move $a0, {reg()}")
    lines.append("        li $v0, 1")
    lines.append("        syscall")
    lines.append("        li $v0, 10")
    lines.append("        syscall")
    for subroutine in subroutines:
        lines.extend(subroutine)
    return "\n".join(lines)


def assert_engines_agree(program, iht_size=None):
    """FuncSim ≡ PipelineCPU on every architected and timing observable."""

    def monitor():
        if iht_size is None:
            return None
        return load_process(program, iht_size=iht_size).monitor

    # Small budgets turn a non-terminating program into a fast failure.
    func_sim = FuncSim(
        program, monitor=monitor(), collect_trace=True, max_instructions=50_000
    )
    pipe_sim = PipelineCPU(
        program, monitor=monitor(), collect_trace=True, max_cycles=500_000
    )
    func_result = func_sim.run()
    pipe_result = pipe_sim.run()
    assert func_result.console == pipe_result.console
    assert func_result.exit_code == pipe_result.exit_code
    assert func_result.instructions == pipe_result.instructions
    assert func_result.cycles == pipe_result.cycles
    assert [e.key for e in func_result.block_trace] == [
        e.key for e in pipe_result.block_trace
    ]
    assert func_sim.state.regs == pipe_sim.state.regs
    assert func_sim.state.regs[0] == 0
    assert (func_sim.state.hi, func_sim.state.lo) == (
        pipe_sim.state.hi,
        pipe_sim.state.lo,
    )
    assert (
        func_sim.state.memory.snapshot_pages()
        == pipe_sim.state.memory.snapshot_pages()
    )
    if iht_size is not None:
        assert func_result.monitor_stats == pipe_result.monitor_stats


@settings(max_examples=examples(60), deadline=None)
@given(source=isa_programs())
def test_random_isa_programs_equivalent(source):
    assert_engines_agree(assemble(source))


@settings(max_examples=examples(30), deadline=None)
@given(source=isa_programs(), iht_size=st.integers(1, 8))
def test_random_isa_programs_monitored_equivalent(source, iht_size):
    assert_engines_agree(assemble(source), iht_size=iht_size)
