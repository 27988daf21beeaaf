"""Tests for Program validation and symbol information."""

import pytest

from repro.fuzz import load_corpus
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import StaticInst
from repro.isa.opcodes import CONTROL_OPS, Opcode
from repro.isa.program import Program, ProgramError
from repro.workloads import WORKLOAD_NAMES, build
from repro.workloads.synth import Recipe, build_from_recipe


def build_simple():
    b = ProgramBuilder("p")
    b.li("x1", 2)  # 0
    b.label("loop")  # 1
    b.addi("x1", "x1", -1)  # 1
    b.bne("x1", "x0", "loop")  # 2
    b.nop()  # 3
    b.halt()  # 4
    return b.build()


def test_empty_program_rejected():
    with pytest.raises(ProgramError, match="empty"):
        Program("p", [])


def test_program_without_halt_rejected():
    with pytest.raises(ProgramError, match="HALT"):
        Program("p", [StaticInst(index=0, op=Opcode.NOP)])


def test_non_sequential_indices_rejected():
    insts = [
        StaticInst(index=1, op=Opcode.HALT),
    ]
    with pytest.raises(ProgramError, match="index"):
        Program("p", insts)


def test_out_of_range_target_rejected():
    insts = [
        StaticInst(index=0, op=Opcode.JUMP, target=10),
        StaticInst(index=1, op=Opcode.HALT),
    ]
    with pytest.raises(ProgramError, match="targets"):
        Program("p", insts)


def test_basic_block_leaders():
    p = build_simple()
    # Branch target (1) and post-branch (3) start blocks.
    assert p.bb_of(0) == 0
    assert p.bb_of(1) == 1
    assert p.bb_of(2) == 1
    assert p.bb_of(3) == 3


def test_function_extents():
    b = ProgramBuilder("p")
    b.nop()
    b.function("f")
    b.nop()
    b.nop()
    b.halt()
    p = b.build()
    names = [f.name for f in p.functions]
    assert names == ["main", "f"]
    assert p.func_of(0) == "main"
    assert p.func_of(3) == "f"
    assert 2 in p.functions[1]
    assert 0 not in p.functions[1]


def test_branch_indices():
    p = build_simple()
    assert p.branch_indices == {2}


def test_addresses_are_4_byte():
    p = build_simple()
    assert p[2].address == 8


def test_disasm_contains_labels_and_functions():
    p = build_simple()
    text = p.disasm()
    assert "<main>:" in text
    assert "loop:" in text
    assert "halt" in text


def test_iteration_and_indexing():
    p = build_simple()
    assert len(list(p)) == len(p) == 5
    assert p[4].op == Opcode.HALT


def test_single_instruction_program():
    b = ProgramBuilder("tiny")
    b.halt()
    p = b.build()
    assert len(p) == 1
    assert p.bb_of(0) == 0
    assert p.func_of(0) == "main"
    assert p.basic_blocks == (0,)
    assert [f.name for f in p.functions] == ["main"]
    assert p.functions[0].start == 0
    assert p.functions[0].end == 1


def test_branch_as_last_instruction_before_halt():
    # A branch whose fall-through is the final HALT: the post-branch
    # leader is the last index, not one past the end.
    b = ProgramBuilder("p")
    b.label("top")  # 0
    b.addi("x1", "x1", -1)  # 0
    b.bne("x1", "x0", "top")  # 1
    b.halt()  # 2
    p = b.build()
    assert p.bb_of(0) == 0
    assert p.bb_of(1) == 0
    assert p.bb_of(2) == 2


def test_halt_as_final_instruction_adds_no_leader():
    # HALT at the very end must not register an out-of-range leader.
    b = ProgramBuilder("p")
    b.nop()  # 0
    b.halt()  # 1
    p = b.build()
    assert p.basic_blocks == (0, 0)


def test_back_to_back_branches_each_end_a_block():
    b = ProgramBuilder("p")
    b.label("a")  # 0
    b.nop()  # 0
    b.beq("x1", "x0", "a")  # 1
    b.bne("x2", "x0", "a")  # 2  (leader: follows a branch)
    b.nop()  # 3  (leader: follows a branch)
    b.halt()  # 4
    p = b.build()
    assert p.bb_of(0) == 0
    assert p.bb_of(1) == 0
    assert p.bb_of(2) == 2
    assert p.bb_of(3) == 3
    assert p.bb_of(4) == 3
    assert p.branch_indices == {1, 2}


def test_bb_of_and_func_of_boundary_indices():
    b = ProgramBuilder("p")
    b.nop()  # 0 (main)
    b.function("f")
    b.nop()  # 1 (f starts)
    b.label("loop")  # 2
    b.addi("x1", "x1", -1)  # 2
    b.bne("x1", "x0", "loop")  # 3
    b.halt()  # 4
    p = b.build()
    # First and last indices resolve without error.
    assert p.bb_of(0) == 0
    assert p.bb_of(len(p) - 1) == 4
    assert p.func_of(0) == "main"
    assert p.func_of(len(p) - 1) == "f"
    # Function boundary: index 0 is main's last, index 1 is f's first.
    assert p.func_of(1) == "f"
    assert p.functions[0].end == 1
    assert p.functions[1].start == 1
    assert 1 in p.functions[1]
    assert 1 not in p.functions[0]
    # Out-of-range indices raise rather than aliasing a block.
    with pytest.raises(IndexError):
        p.bb_of(len(p))
    with pytest.raises(IndexError):
        p.func_of(len(p))


def _per_pc_basic_blocks(program):
    """The per-pc algorithm ``Program._compute_basic_blocks`` replaces:
    one set probe per instruction index."""
    leaders = {0}
    for inst in program.insts:
        if inst.op in CONTROL_OPS:
            if inst.target >= 0:
                leaders.add(inst.target)
            if inst.index + 1 < len(program.insts):
                leaders.add(inst.index + 1)
        elif inst.op in (Opcode.HALT, Opcode.SERIAL):
            if inst.index + 1 < len(program.insts):
                leaders.add(inst.index + 1)
    mapping = []
    current_leader = 0
    for pos in range(len(program.insts)):
        if pos in leaders:
            current_leader = pos
        mapping.append(current_leader)
    return tuple(mapping)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_basic_blocks_match_per_pc_algorithm_on_kernels(name):
    program = build(name, scale=0.05).program
    assert program.basic_blocks == _per_pc_basic_blocks(program)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_per_index_tables_match_each_instruction(name):
    program = build(name, scale=0.05).program
    insts = program.insts
    assert program.sources_by_index == tuple(i.sources() for i in insts)
    assert program.dest_by_index == tuple(i.rd for i in insts)
    assert program.class_by_index == tuple(i.op_class for i in insts)
    # The extents tile the program, one per leader, in order.
    extents = program.block_extents()
    assert [leader for leader, _ in extents] == sorted(
        set(program.basic_blocks)
    )
    for leader, end in extents:
        assert program.basic_blocks[leader:end] == (leader,) * (end - leader)


def test_basic_blocks_match_per_pc_algorithm_on_fuzz_corpus():
    recipes = []
    for _, entry in load_corpus():
        recipes.append(entry.recipe)
        if entry.shrunk_from is not None:
            recipes.append(Recipe(**entry.shrunk_from))
    recipes += [Recipe.sample(seed) for seed in range(1, 6)]
    assert len(recipes) > 5
    for recipe in recipes:
        program = build_from_recipe(recipe, scale=0.05).program
        assert program.basic_blocks == _per_pc_basic_blocks(program)


def test_basic_blocks_match_per_pc_algorithm_on_edge_programs():
    halt_only = Program("h", [StaticInst(index=0, op=Opcode.HALT)])
    branch_last = Program("b", [
        StaticInst(index=0, op=Opcode.NOP),
        StaticInst(index=1, op=Opcode.HALT),
        StaticInst(index=2, op=Opcode.BNE, rs1=1, rs2=0, target=0),
    ])
    serial_mid = ProgramBuilder("s").nop().serial().nop().halt().build()
    for program in (halt_only, branch_last, serial_mid, build_simple()):
        assert program.basic_blocks == _per_pc_basic_blocks(program)
    assert halt_only.basic_blocks == (0,)
    assert branch_last.basic_blocks == (0, 0, 2)
    assert serial_mid.basic_blocks == (0, 0, 2, 2)
