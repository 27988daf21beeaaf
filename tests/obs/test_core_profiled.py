"""Instrumented core: bit-identical results plus stage telemetry."""

import ast
import inspect
import textwrap
from collections import deque
from types import SimpleNamespace

import pytest

from repro import obs
from repro.backends import simulate_backend
from repro.core.samplers import make_sampler
from repro.obs import stageprof
from repro.obs.stageprof import STAGE_METHODS, StageProfiler
from repro.uarch.core import Core
from repro.workloads import build


def run_once(name="exchange2", backend="detailed", scale=0.05, period=293):
    wl = build(name, scale=scale)
    sampler = make_sampler("TEA", period)
    result = simulate_backend(
        backend, wl.program, samplers=[sampler],
        arch_state=wl.fresh_state(),
    )
    return result, sampler


@pytest.mark.parametrize(
    "name, backend",
    [
        ("exchange2", "detailed"),
        ("gcc", "detailed"),
        ("exchange2", "sampled"),
    ],
)
def test_profiled_run_is_bit_identical(name, backend):
    baseline, base_sampler = run_once(name, backend)
    obs.enable()
    profiled, prof_sampler = run_once(name, backend)
    assert obs.COUNTERS.snapshot()["counters"]["core.stage_s.commit"] > 0
    assert profiled.cycles == baseline.cycles
    assert profiled.committed == baseline.committed
    assert profiled.golden_raw == baseline.golden_raw
    assert profiled.state_cycles == baseline.state_cycles
    assert prof_sampler.raw == base_sampler.raw
    assert (
        prof_sampler.profile().stacks == base_sampler.profile().stacks
    )


def test_profiled_run_emits_stage_spans_and_counters():
    obs.enable()
    result, _ = run_once()
    events = obs.COLLECTOR.snapshot()

    run_spans = [
        e for e in events
        if e["ph"] == "X" and e["name"].startswith("core.run:")
    ]
    assert len(run_spans) == 1

    stage_spans = {
        e["name"]
        for e in events
        if e["ph"] == "X" and e.get("cat") == "core-stage"
    }
    # The busiest stages must always appear; idle only on ff workloads.
    assert {"stage:commit", "stage:fetch", "stage:issue"} <= stage_spans

    counter_tracks = {e["name"] for e in events if e["ph"] == "C"}
    assert any(
        name.endswith(".throughput") for name in counter_tracks
    )
    assert any(name.endswith(".stage_ms") for name in counter_tracks)
    assert any(name.endswith(".occupancy") for name in counter_tracks)

    snap = obs.COUNTERS.snapshot()
    assert snap["counters"]["core.cycles"] == result.cycles
    assert snap["counters"]["core.committed"] == result.committed
    # Commit-state occupancy is keyed by the four commit states.
    states = {
        key for key in snap["counters"] if key.startswith("core.state.")
    }
    assert "core.state.compute" in states
    # Cache/TLB hit rates land as gauges in [0, 1].
    for label in ("l1i", "l1d", "llc", "itlb", "dtlb"):
        rate = snap["gauges"][f"mem.{label}.hit_rate"]
        assert 0.0 <= rate <= 1.0
    # Sampler overhead accounting.
    sampler_counts = [
        value
        for key, value in snap["counters"].items()
        if key.startswith("sampler.") and key.endswith(".samples")
    ]
    assert sampler_counts and sampler_counts[0] > 0


def test_sampled_run_reports_stage_time():
    obs.enable()
    run_once("lbm", "sampled")
    snap = obs.COUNTERS.snapshot()
    assert snap["counters"]["core.stage_s.commit"] > 0
    stage_spans = {
        e["name"]
        for e in obs.COLLECTOR.snapshot()
        if e["ph"] == "X" and e.get("cat") == "core-stage"
    }
    assert {"stage:commit", "stage:fetch", "stage:issue"} <= stage_spans


@pytest.mark.parametrize("backend", ["detailed", "sampled"])
def test_stage_time_fits_inside_run_spans(backend):
    obs.enable()
    run_once("mcf", backend)
    counters = obs.COUNTERS.snapshot()["counters"]
    stage_s = sum(
        value for key, value in counters.items()
        if key.startswith("core.stage_s.")
    )
    run_s = sum(
        e["dur"] for e in obs.COLLECTOR.snapshot()
        if e["ph"] == "X" and e["name"].startswith("core.run:")
    ) / 1e6
    assert 0.0 < stage_s <= run_s


def test_profiler_wraps_every_stage_method_step_calls():
    step = ast.parse(textwrap.dedent(inspect.getsource(Core.step)))
    called = {
        node.func.attr
        for node in ast.walk(step)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "self"
    }
    called.discard("_step_reference")  # the frozen oracle, unprofiled
    assert called == {method for _stage, method in STAGE_METHODS}


#: Fake wall time each stub stage spends (powers of two: exact sums).
COST = {
    method: float(2 ** index)
    for index, (_stage, method) in enumerate(STAGE_METHODS)
}


class FakeClock:
    now = 0.0

    def __call__(self):
        return self.now


def _stub_stage(method):
    def stage(self, *args):
        self.clock.now += COST[method]
        if method == "_fast_forward":
            self._poll_samplers(self.cycle)  # nested, like Core's

    return stage


class StubCore:
    """The eight stage methods and a step() that calls each once."""

    def __init__(self, clock):
        self.clock = clock
        self.program = SimpleNamespace(name="stub")
        self.cycle = 0
        self.rob, self.fetch_buffer = deque(), deque()
        self._iq_occ = {"int": 0, "mem": 0, "fp": 0}

    def step(self, horizon=None):
        self.cycle += 1
        for _stage, method in STAGE_METHODS:
            getattr(self, method)()


for _stage, _method in STAGE_METHODS:
    setattr(StubCore, _method, _stub_stage(_method))


def test_nested_stage_time_is_counted_once(monkeypatch):
    obs.enable()
    clock = FakeClock()
    monkeypatch.setattr(stageprof, "perf_counter", clock)
    core = StubCore(clock)
    prof = StageProfiler.attach(core)
    for _ in range(3):
        core.step()
    prof.finish(core.cycle)
    counters = obs.COUNTERS.snapshot()["counters"]
    for stage, method in STAGE_METHODS:
        # The sampler poll inside _fast_forward is charged to "sample"
        # only; "idle" keeps just the fast-forward's self time.
        calls = 6 if method == "_poll_samplers" else 3
        assert counters[f"core.stage_s.{stage}"] == calls * COST[method]
    assert sum(
        counters[f"core.stage_s.{stage}"] for stage, _ in STAGE_METHODS
    ) == clock.now


def test_window_flushing_produces_multiple_windows():
    obs.enable()
    prof = StageProfiler("unit", window_cycles=100)
    for cycle in range(0, 500, 100):
        prof.add(0, 0.001)
        prof.occupancy(8, 4, 2, 1, 0, 100)
        prof.maybe_flush(cycle + 100)
    prof.finish(500)
    assert prof.windows_flushed >= 5
    snap = obs.COUNTERS.snapshot()
    assert snap["counters"]["core.stage_s.events"] == pytest.approx(
        0.005
    )
    assert snap["gauges"]["core.occupancy.rob"] == pytest.approx(8.0)


def test_disabled_run_collects_nothing():
    obs.disable()
    run_once()
    run_once(backend="sampled")
    assert len(obs.COLLECTOR) == 0
    snap = obs.COUNTERS.snapshot()
    assert snap["counters"] == {} and snap["gauges"] == {}
