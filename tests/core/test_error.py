"""Tests for the paper's error metric (Section 4)."""

import pytest

from repro.core.error import (
    correctly_attributed,
    error_at_granularity,
    pics_error,
)
from repro.core.events import Event, event_mask
from repro.core.pics import Granularity, PicsProfile

ST_L1 = 1 << Event.ST_L1
ST_TLB = 1 << Event.ST_TLB


def golden():
    return PicsProfile(
        "golden", {0: {0: 40.0, ST_L1: 40.0}, 1: {ST_TLB: 20.0}}
    )


def test_identical_profiles_have_zero_error():
    g = golden()
    assert pics_error(g, g) == pytest.approx(0.0)


def test_exact_self_comparison_is_exactly_zero():
    # The golden total adds per-stack subtotals, the correct cycles add
    # component by component: (0.1+0.1)+(0.1+2.3) != ((0.1+0.1)+0.1)+2.3
    # in floats, which used to leave a 1.7e-16 error.
    g = PicsProfile("golden", {0: {0: 0.1, ST_L1: 0.1},
                               1: {0: 0.1, ST_L1: 2.3}})
    copy = PicsProfile("copy", {u: dict(s) for u, s in g.stacks.items()})
    for normalize in (True, False):
        assert pics_error(g, g, normalize=normalize) == 0.0
        assert pics_error(copy, g, normalize=normalize) == 0.0
    # Equal after projecting onto the event set counts as exact too.
    assert pics_error(g, g, event_mask=0) == 0.0
    off = PicsProfile("off", {0: {0: 0.1, ST_L1: 0.1},
                              1: {0: 0.1, ST_L1: 2.2}})
    assert pics_error(off, g, normalize=False) > 0.0


def test_error_bounds():
    g = golden()
    disjoint = PicsProfile("m", {7: {0: 100.0}})
    assert pics_error(disjoint, g) == pytest.approx(1.0)


def test_misattributed_unit():
    g = golden()
    # All cycles on the right signatures but unit 1's moved to unit 0.
    m = PicsProfile(
        "m", {0: {0: 40.0, ST_L1: 40.0, ST_TLB: 20.0}}
    )
    assert pics_error(m, g) == pytest.approx(0.2)


def test_misattributed_signature():
    g = golden()
    # Unit 0's ST-L1 cycles reported as Base.
    m = PicsProfile("m", {0: {0: 80.0}, 1: {ST_TLB: 20.0}})
    assert pics_error(m, g) == pytest.approx(0.4)


def test_normalisation_of_sampled_profiles():
    g = golden()
    # Same shape, half the magnitude (fewer samples): still perfect.
    m = PicsProfile(
        "m", {0: {0: 20.0, ST_L1: 20.0}, 1: {ST_TLB: 10.0}}
    )
    assert pics_error(m, g) == pytest.approx(0.0)
    # Without normalisation the shortfall is an error.
    assert pics_error(m, g, normalize=False) == pytest.approx(0.5)


def test_event_mask_projection():
    g = golden()
    # A technique without ST-TLB support reports unit 1 as Base.
    m = PicsProfile("m", {0: {0: 40.0, ST_L1: 40.0}, 1: {0: 20.0}})
    full_error = pics_error(m, g)
    masked_error = pics_error(m, g, event_mask({Event.ST_L1}))
    assert masked_error == pytest.approx(0.0)
    assert full_error > 0


def test_granularity_mismatch_rejected():
    g = golden()
    other = PicsProfile("m", {}, Granularity.FUNCTION)
    with pytest.raises(ValueError, match="granularity"):
        pics_error(other, g)


def test_empty_golden_rejected():
    with pytest.raises(ValueError, match="empty"):
        pics_error(golden(), PicsProfile("g", {}))


def test_correctly_attributed():
    g = golden()
    m = PicsProfile("m", {0: {0: 50.0, ST_L1: 30.0}})
    assert correctly_attributed(m, g) == pytest.approx(70.0)


def test_error_at_granularity_collapses_unit_confusion():
    from repro.isa.builder import ProgramBuilder

    b = ProgramBuilder("p")
    b.li("x1", 1)
    b.addi("x1", "x1", 1)
    b.halt()
    program = b.build()
    g = PicsProfile("g", {0: {0: 50.0}, 1: {0: 50.0}})
    # Swapped units: 100% wrong at instruction granularity, perfect at
    # application granularity.
    m = PicsProfile("m", {0: {0: 50.0}, 1: {0: 50.0}})
    m.stacks[0], m.stacks[1] = {0: 10.0}, {0: 90.0}
    inst_err = error_at_granularity(
        m, g, program, Granularity.INSTRUCTION
    )
    app_err = error_at_granularity(
        m, g, program, Granularity.APPLICATION
    )
    assert inst_err > 0
    assert app_err == pytest.approx(0.0)
