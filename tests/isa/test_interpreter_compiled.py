"""Compiled-handler interpreter: exact equivalence with the plain loop.

``Interpreter(compiled=True)`` (the default) specialises each static
instruction into a closure with register indices and immediates baked
in; ``compiled=False`` is the original interpreted dispatch. The
specialisation contract is exactness: identical dynamic streams
(including effective-address *types*) and identical final architectural
state, or a clean whole-program fallback to the interpreted path.
"""

from __future__ import annotations

import pytest

from repro.isa.builder import ProgramBuilder
from repro.isa.interpreter import ArchState, Interpreter
from repro.workloads import WORKLOAD_NAMES, build


def _stream(program, state, compiled: bool):
    interp = Interpreter(program, state, compiled=compiled)
    dyns = [
        (d.static, d.seq, d.eff_addr, type(d.eff_addr), d.taken,
         d.next_index)
        for d in interp.run()
    ]
    return dyns, interp


def _state_snapshot(state: ArchState):
    return (
        [(type(v), v) for v in state.int_regs],
        [(type(v), v) for v in state.fp_regs],
        {k: (type(v), v) for k, v in state.memory.items()},
    )


@pytest.mark.parametrize("name", sorted(WORKLOAD_NAMES))
def test_compiled_matches_interpreted(name):
    workload = build(name, scale=0.05)
    compiled_dyns, compiled = _stream(
        workload.program, workload.fresh_state(), True
    )
    interp_dyns, interpreted = _stream(
        workload.program, workload.fresh_state(), False
    )
    assert compiled_dyns == interp_dyns
    assert compiled.inst_count == interpreted.inst_count
    assert compiled.halted == interpreted.halted
    assert _state_snapshot(compiled.state) == _state_snapshot(
        interpreted.state
    )


def test_mixed_register_classes_fall_back_cleanly():
    """Ops outside the specialised set run through the fallback closure
    with identical results."""
    b = ProgramBuilder("t")
    b.li("x1", 37)
    b.li("x2", 5)
    b.div("x3", "x1", "x2")
    b.rem("x4", "x1", "x2")
    b.fcvt("f1", "x3")
    b.fsqrt("f2", "f1")
    b.fdiv("f3", "f1", "f2")
    b.halt()
    program = b.build()
    a, ia = _stream(program, None, True)
    bb, ib = _stream(program, None, False)
    assert a == bb
    assert _state_snapshot(ia.state) == _state_snapshot(ib.state)


def test_seeded_state_violating_invariant_falls_back():
    """A seeded state that breaks the register type invariant (an int
    in an fp register) disables compilation for the whole program
    rather than diverging."""
    b = ProgramBuilder("t")
    b.li("x1", 1)
    b.fadd("f3", "f1", "f2")
    b.halt()
    program = b.build()
    state = ArchState()
    state.fp_regs[1] = 2  # int where a float belongs
    state2 = ArchState()
    state2.fp_regs[1] = 2
    a, ia = _stream(program, state, True)
    bb, ib = _stream(program, state2, False)
    assert a == bb
    assert _state_snapshot(ia.state) == _state_snapshot(ib.state)


def test_closures_compile_only_for_executed_pcs():
    """Each pc compiles on its first execution: gcc, whose static code
    mostly never runs, builds one closure per distinct executed pc."""
    workload = build("gcc", scale=0.05)
    interp = Interpreter(workload.program, workload.fresh_state())
    executed = {d.static.index for d in interp.run()}
    assert interp.halted
    assert interp.compiled_pcs == len(executed)
    assert interp.compiled_pcs * 50 < len(workload.program)
