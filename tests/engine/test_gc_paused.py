"""The run-boundary GC pause: state restoration, and no cyclic garbage.

:func:`~repro.engine.runs.gc_paused` disables the cyclic collector
while a workload is built and simulated. It must hand the collector
back exactly as it found it, and it is only safe while a run creates
(almost) no reference cycles -- otherwise paused runs would grow memory
that only a later collection gives back.
"""

from __future__ import annotations

import gc

import pytest

# The tiers import these lazily; importing them here keeps a first
# import's own cyclic garbage out of the per-run counts below.
import repro.backends.functional  # noqa: F401
import repro.backends.sampled  # noqa: F401
from repro.engine import runs
from repro.engine.runs import gc_paused, simulate_spec
from repro.engine.spec import RunSpec

from tests.engine.conftest import SMALL

#: Objects ``gc.collect()`` may reclaim after one run is deleted.
#: Measured: 0 for all 15 kernels on every tier at scale 0.05, and for
#: gcc/omnetpp/nab/xz detailed and gcc/x264/mcf sampled at scale 1.0.
#: Before squashed µops dropped their dependence links, nab left 2,106
#: objects here (46,726 at scale 1.0): a reference cycle per µop or per
#: cycle leaves thousands.
MAX_CYCLIC_GARBAGE = 50


@pytest.fixture
def gc_enabled():
    """Run the test with GC on, and restore the setting it found."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def test_restores_gc_on_normal_exit(gc_enabled):
    with gc_paused():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_restores_gc_when_the_body_raises(gc_enabled):
    with pytest.raises(RuntimeError), gc_paused():
        assert not gc.isenabled()
        raise RuntimeError("boom")
    assert gc.isenabled()


def test_nested_pauses_keep_gc_off_until_the_outermost_exit(gc_enabled):
    with gc_paused():
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_callers_own_disable_survives(gc_enabled):
    gc.disable()
    with gc_paused():
        assert not gc.isenabled()
    assert not gc.isenabled()


def _spec(name: str, backend: str = "detailed") -> RunSpec:
    return RunSpec.make(name, backend=backend, **SMALL)


@pytest.mark.parametrize("enabled", [True, False])
def test_simulate_spec_leaves_gc_state_unchanged(gc_enabled, enabled):
    if not enabled:
        gc.disable()
    simulate_spec(_spec("mcf"))
    assert gc.isenabled() is enabled


def test_simulation_runs_with_gc_paused(gc_enabled, monkeypatch):
    seen = []
    simulate = runs.simulate

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return simulate(*args, **kwargs)

    monkeypatch.setattr(runs, "simulate", spy)
    simulate_spec(_spec("mcf"))
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize(
    "name, backend",
    [("gcc", "detailed"), ("omnetpp", "detailed"), ("nab", "detailed"),
     ("gcc", "sampled")],
)
def test_a_deleted_run_leaves_no_cyclic_garbage(gc_enabled, name, backend):
    gc.collect()
    # Keep GC off until the count: a collection triggered as the pause
    # ends would otherwise reclaim the run's cycles unseen.
    gc.disable()
    run = simulate_spec(_spec(name, backend))
    assert run.result.committed > 0
    del run
    assert gc.collect() < MAX_CYCLIC_GARBAGE
