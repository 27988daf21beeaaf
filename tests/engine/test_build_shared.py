"""One built workload per build key, per :class:`Engine`.

Specs that differ only in backend, period, samplers or seeds build the
same workload, so an engine builds it once and every run it serves
shares the one :class:`~repro.isa.program.Program`. Sharing must not
change what is simulated: each run equals a fresh :func:`simulate_spec`
of its spec, which builds its own workload.
"""

from __future__ import annotations

import pytest

from repro.engine import Engine, RunSpec, RunStore
from repro.engine import engine as engine_module
from repro.engine.runs import simulate_spec

from tests.engine.conftest import SMALL

TIERS = ("detailed", "sampled", "functional")


@pytest.fixture
def builds(monkeypatch):
    """Build keys the engine module's ``build_workload`` was asked for."""
    seen: list[str] = []
    real = engine_module.build_workload

    def counting(spec):
        seen.append(spec.build_key)
        return real(spec)

    monkeypatch.setattr(engine_module, "build_workload", counting)
    return seen


def tier_specs(name: str = "gcc") -> dict[str, RunSpec]:
    return {tier: RunSpec.make(name, backend=tier, **SMALL)
            for tier in TIERS}


def assert_same_run(run, reference) -> None:
    assert run.result.cycles == reference.result.cycles
    assert run.result.committed == reference.result.committed
    assert run.result.golden_raw == reference.result.golden_raw
    assert run.result.state_cycles == reference.result.state_cycles
    assert run.samplers.keys() == reference.samplers.keys()
    for key, sampler in run.samplers.items():
        assert sampler.raw == reference.samplers[key].raw, key


def test_build_key_ignores_everything_but_the_build_inputs():
    base = RunSpec.make("lbm", {"prefetch_distance": 4}, scale=0.05)
    others = (
        RunSpec.make("lbm", {"prefetch_distance": 4}, scale=0.05,
                     backend="sampled", period=67, seed=7, jitter=False),
        RunSpec.make("lbm", {"prefetch_distance": 4}, scale=0.05,
                     backend="functional", extra_periods=(101,)),
    )
    for other in others:
        assert other.key != base.key
        assert other.build_key == base.build_key
    for different in (
        RunSpec.make("lbm", {"prefetch_distance": 8}, scale=0.05),
        RunSpec.make("lbm", {"prefetch_distance": 4.0}, scale=0.05),
        RunSpec.make("lbm", {"prefetch_distance": 4}, scale=0.1),
        RunSpec.make("mcf", scale=0.05),
    ):
        assert different.build_key != base.build_key


def test_tiers_share_one_build_and_one_program(builds):
    engine = Engine()
    specs = tier_specs()
    runs = {tier: engine.run(spec) for tier, spec in specs.items()}
    assert len(builds) == 1
    program = runs["detailed"].workload.program
    for run in runs.values():
        assert run.workload.program is program
    for tier, spec in specs.items():
        assert_same_run(runs[tier], simulate_spec(spec))


def test_run_suite_builds_once_per_build_key(builds, tmp_path):
    specs = {f"gcc/{tier}": spec for tier, spec in tier_specs().items()}
    specs["lbm"] = RunSpec.make("lbm", **SMALL)
    specs["lbm/p101"] = RunSpec.make("lbm", scale=SMALL["scale"],
                                     period=101)
    build_keys = {spec.build_key for spec in specs.values()}
    assert len(build_keys) == 2

    cold = Engine(store=RunStore(tmp_path)).run_suite(specs)
    assert sorted(builds) == sorted(build_keys)

    # A warm store: every run loads from disk, still one build per key.
    builds.clear()
    engine = Engine(store=RunStore(tmp_path))
    warm = engine.run_suite(specs)
    assert engine.simulations == 0
    assert sorted(builds) == sorted(build_keys)
    gcc = warm["gcc/detailed"].workload.program
    assert all(warm[f"gcc/{tier}"].workload.program is gcc
               for tier in TIERS)
    for label, run in warm.items():
        assert_same_run(run, cold[label])

    # Single runs on the same engine reuse the suite's builds.
    engine.run(RunSpec.make("gcc", scale=SMALL["scale"], period=101))
    assert sorted(builds) == sorted(build_keys)


def test_a_new_engine_builds_again(builds):
    spec = RunSpec.make("gcc", backend="functional", **SMALL)
    first = Engine().run(spec)
    second = Engine().run(spec)
    assert len(builds) == 2
    assert first.workload.program is not second.workload.program
    assert_same_run(first, second)
