"""The benchmark's workloads, their output checks and their metrics.

Every workload is a closed loop with one caller: a pass starts only
after the previous one returned, with ``jobs=1``. Each pass uses a
fresh :class:`~repro.engine.Engine` and a fresh :class:`RunStore`
object; stores live in temporary directories inside the checkout, never
in ``$TEA_REPRO_STORE`` or ``~/.cache/tea-repro``, so no earlier run
can turn a cold pass warm. See ``perfbench/README.md`` for why each
workload exists and which layer metric should move which end-to-end
metric.

All accuracy figures compare the model with itself: TEA against the
golden every-cycle attribution, the sampled tier against the detailed
tier. The model is not validated against hardware.
"""

from __future__ import annotations

import math
import random
import shutil
import tempfile
import traceback
from statistics import fmean
from contextlib import nullcontext
from pathlib import Path
from typing import Any

from repro.backends.functional import simulate_functional as _functional
from repro.backends.sampled import WindowPlan
from repro.core import error as core_error
from repro.core.events import event_mask
from repro.core.states import CommitState
from repro.engine import Engine, RunSpec, RunStore, run_to_payload
from repro.engine import runs as engine_runs
from repro.experiments import accuracy
from repro.experiments.runner import ExperimentRunner
from repro.predict import analyzer
from repro.trace import capture
from repro.trace.query import TraceQuery
from repro.workloads import WORKLOAD_NAMES

#: Workload scale. 0.25 keeps one run (three set-ups, at least three
#: passes and the checks) near half a minute, so the whole measurement
#: protocol fits its time budget; ``DEFAULT_SCALE`` (1.0) is four times
#: longer per pass.
SCALE = 0.25
#: The 15 hand-built kernels.
KERNELS = WORKLOAD_NAMES
#: Fig 5's technique whose error the end-to-end metrics report.
TEA = "TEA"
#: Each held-out scenario commits at least this many window-plus-stride
#: regions of the default sampled-tier plan.
HELDOUT_REGIONS = 3.5
#: Held-out ``synth`` scenarios: fixed event mixes, none of them a
#: kernel. The benchmark seed draws each scenario's own seed, which
#: shapes its pointer chain, data and branch outcomes.
HELDOUT_RECIPES = (
    # Dependent pointer chase over an LLC-sized chain.
    {"chase_hops": 2, "chain_nodes": 1024, "chain_stride": 256,
     "stream_lines": 0, "alu_depth": 2, "fp_ops": 0, "branches": 1,
     "branch_entropy": 1.0, "serial_mask_bits": -1, "stores": 0},
    # Data-dependent branches and serialising flushes.
    {"chase_hops": 0, "chain_nodes": 1, "stream_lines": 1,
     "stream_kib": 16, "alu_depth": 4, "fp_ops": 1, "branches": 3,
     "branch_entropy": 1.0, "serial_mask_bits": 4, "stores": 1},
    # Streaming loads and stores with FP work.
    {"chase_hops": 1, "chain_nodes": 64, "chain_stride": 64,
     "stream_lines": 4, "stream_kib": 256, "alu_depth": 1, "fp_ops": 2,
     "branches": 1, "branch_entropy": 0.0, "serial_mask_bits": -1,
     "stores": 2},
)

#: The simulate-call spans ``sim_kips`` counts.
SIM_SPANS = ("simulate", "simulate_functional", "SampledBackend.simulate")


# ----------------------------------------------------------------------
# Failure accounting.
# ----------------------------------------------------------------------
class Ledger:
    """Counts operations and the ones that raised or failed a check.

    An operation is one kernel served, one query or one prediction.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, label: str, fn, *args, kernel: str | None = None) -> Any:
        """Run one operation on *kernel*; *fn* returns ``(result,
        problems)``."""
        self.attempted += 1
        try:
            with self.tracer.kernel(kernel) if kernel else nullcontext():
                result, problems = fn(*args)
        except Exception as exc:  # one failed operation, not a crash
            traceback.print_exc()
            result, problems = None, [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")
        return result


def golden_problems(label: str, result: Any, slack: float = 0.0) -> list:
    """The golden profile must account for every cycle of the run.

    *slack* allows the rounding of a sampled tier's extrapolated total.
    """
    golden = sum(result.golden_raw.values())
    if abs(golden - result.cycles) > slack + 1e-9 * result.cycles:
        return [f"{label}: golden total {golden!r} != cycles "
                f"{result.cycles}"]
    return []


def tea_error(run: Any) -> float:
    """TEA's instruction-level PICS error against the golden profile."""
    sampler = run.samplers[TEA]
    return core_error.pics_error(
        sampler.profile(), run.golden, event_mask(sampler.events)
    )


def relative(estimate: float, reference: float) -> float:
    """Absolute relative difference."""
    return abs(estimate - reference) / reference


class SeededRunner(ExperimentRunner):
    """:class:`ExperimentRunner` whose specs carry the benchmark seed."""

    def __init__(self, seed: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self.seed = seed

    def spec(self, name: str, **workload_kwargs) -> RunSpec:
        return RunSpec.make(
            name, workload_kwargs, scale=self.scale, period=self.period,
            config=self.config, techniques=self.techniques,
            extra_periods=self.extra_periods, seed=self.seed,
        )


def kernel_specs(seed: int) -> dict:
    """Fig 5's detailed-tier spec of each kernel."""
    return {name: RunSpec.make(name, scale=SCALE, seed=seed)
            for name in KERNELS}


def heldout_reference(seed: int) -> dict:
    """label -> (sampled-tier spec, detailed run) of each held-out
    scenario the seed draws, sized to span ``HELDOUT_REGIONS``."""
    plan = WindowPlan()
    target = HELDOUT_REGIONS * (plan.window + plan.stride)
    rng = random.Random(f"perfbench-heldout-{seed}")
    scenarios = {}
    for recipe in HELDOUT_RECIPES:
        knobs = dict(recipe, seed=rng.randrange(1, 1 << 30))
        # Two short functional runs give the per-iteration length.
        short = []
        for iters in (64, 128):
            workload = engine_runs.build_workload(
                RunSpec.make("synth", dict(knobs, iters=iters)))
            short.append(_functional(
                workload.program, arch_state=workload.fresh_state()
            ).committed)
        per_iter = (short[1] - short[0]) / 64
        knobs["iters"] = 64 + math.ceil((target - short[0]) / per_iter)
        detailed = RunSpec.make("synth", knobs, seed=seed)
        scenarios[f"synth:{knobs['seed']}"] = (
            RunSpec.make("synth", knobs, seed=seed, backend="sampled"),
            engine_runs.simulate_spec(detailed),
        )
    return scenarios


# ----------------------------------------------------------------------
# Cross-tier comparison (sampled-tier's pass; the other workloads' once
# per run, untimed, so every workload reports every accuracy metric).
# ----------------------------------------------------------------------
def serve_tiers(engine: Engine, ledger: Ledger, reference: dict,
                heldout: dict, seed: int) -> dict:
    """Serve the sampled and functional tiers and compare them.

    *reference* maps kernel -> detailed run; *heldout* maps a held-out
    label -> (its sampled-tier spec, its detailed run).
    """
    sampled = {}
    functional = {}
    errors = {"cycle": [], "pics": [], "heldout": []}

    def kernel(name: str):
        detailed = reference[name].result
        s = engine.run(RunSpec.make(name, scale=SCALE, seed=seed,
                                    backend="sampled"))
        f = engine.run(RunSpec.make(name, scale=SCALE, seed=seed,
                                    backend="functional"))
        problems = golden_problems(f"{name}/functional", f.result)
        problems += tier_problems(name, detailed, s.result, f.result)
        cycle = relative(s.result.cycles, detailed.cycles)
        pics = core_error.pics_error(s.golden, reference[name].golden)
        return (s, f, cycle, pics), problems

    for name in KERNELS:
        out = ledger.run(f"sampled/{name}", kernel, name, kernel=name)
        if out is not None:
            sampled[name], functional[name] = out[0], out[1]
            errors["cycle"].append(out[2])
            errors["pics"].append(out[3])

    def scenario(label: str, spec: RunSpec, detailed):
        detailed = detailed.result
        s = engine.run(spec)
        problems = tier_problems(label, detailed, s.result, None)
        regions = len(s.result.windows)
        if regions < 3:
            problems.append(f"{label}: only {regions} sampled regions")
        return (s, relative(s.result.cycles, detailed.cycles)), problems

    for label, (spec, detailed) in heldout.items():
        out = ledger.run(f"heldout/{label}", scenario, label, spec,
                         detailed, kernel=label)
        if out is not None:
            sampled[label] = out[0]
            errors["heldout"].append(out[1])
    return {"sampled": sampled, "functional": functional,
            "errors": errors}


def tier_problems(label: str, detailed, sampled, functional) -> list:
    """Committed counts agree across tiers; sampled counts add up."""
    problems = golden_problems(f"{label}/sampled", sampled, slack=1.0)
    if sampled.committed != detailed.committed:
        problems.append(f"{label}: sampled committed {sampled.committed}"
                        f" != detailed {detailed.committed}")
    if functional is not None and functional.committed != detailed.committed:
        problems.append(f"{label}: functional committed "
                        f"{functional.committed} != detailed "
                        f"{detailed.committed}")
    if sampled.committed != sampled.measured_committed + sampled.ff_committed:
        problems.append(f"{label}: committed {sampled.committed} != "
                        f"measured {sampled.measured_committed} + "
                        f"fast-forwarded {sampled.ff_committed}")
    return problems


def tier_metrics(errors: dict) -> dict:
    return {
        "sampled_cycle_err_mean": 100 * fmean(errors["cycle"]),
        "sampled_cycle_err_max": 100 * max(errors["cycle"]),
        "sampled_pics_err_mean": 100 * fmean(errors["pics"]),
        "heldout_cycle_err_mean": 100 * fmean(errors["heldout"]),
    }


def tea_metrics(tea: dict) -> dict:
    return {
        "tea_err_mean": 100 * fmean(tea.values()),
        "tea_err_max": 100 * max(tea.values()),
    }


def error_rows(run) -> dict:
    """Fig 5's row for one run: technique -> PICS error."""
    return {technique: run.error(technique) for technique in run.samplers}


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------
class Pass:
    """What one pass served: its store, specs and counted work."""

    def __init__(self, store: RunStore, engine: Engine) -> None:
        self.store = store
        self.engine = engine
        self.specs: list[RunSpec] = []
        self.blocks = 0
        self.ff_share = 0.0


class Workload:
    """Shared plumbing: seed, scratch space, spans and failures.

    ``run.py`` calls :meth:`setup` several times (the last one stays in
    effect) with passes of :meth:`run_pass` after each, then
    :meth:`accuracy` once.
    """

    name = ""

    def __init__(self, seed: int, scratch: Path, tracer, ledger: Ledger):
        self.seed = seed
        self.scratch = scratch
        self.tracer = tracer
        self.ledger = ledger
        self._dirs: list[Path] = []

    def fresh_dir(self) -> Path:
        """A new empty store directory inside the checkout."""
        path = Path(tempfile.mkdtemp(dir=self.scratch))
        self._dirs.append(path)
        return path

    def drop_dirs(self, keep: Path | None = None) -> None:
        """Delete the store directories made so far, except *keep*."""
        for path in self._dirs:
            if path != keep:
                shutil.rmtree(path, ignore_errors=True)
        self._dirs = [keep] if keep is not None else []

    def digest_runs(self) -> dict:
        """label -> run whose simulated statistics the digest covers."""
        return {spec.label(): self.last.engine.run(spec)
                for spec in self.last.specs}

    def _fig5(self, runner: SeededRunner, done: Pass, cold: dict) -> dict:
        """Serve Fig 5 kernel by kernel; with *cold* rows, each served
        row must reproduce its cold row exactly."""
        rows = {}

        def kernel(name: str):
            row = accuracy.run(runner, names=(name,)).errors[name]
            run = runner.run(name)  # the memoised run Fig 5 used
            problems = golden_problems(name, run.result)
            problems += [f"{name}: {t} error {e!r} out of range"
                         for t, e in row.items() if not 0.0 <= e <= 1.0]
            if cold and row != cold.get(name):
                problems.append(f"{name}: warm errors {row} != cold "
                                f"{cold.get(name)}")
            return row, problems

        for name in KERNELS:
            row = self.ledger.run(f"fig5/{name}", kernel, name, kernel=name)
            if row is not None:
                rows[name] = row
            done.specs.append(runner.spec(name))
        simulations = runner.engine.simulations
        if cold and simulations:
            self.ledger.run("fig5", lambda: (None, [
                f"warm Fig 5 simulated {simulations} runs"]))
        return rows

    def accuracy(self) -> dict:
        """Fig 5's TEA error of the last pass, and the sampled and
        functional tiers compared with its detailed runs (once per run,
        untimed)."""
        reference = {spec.workload: self.last.engine.run(spec)
                     for spec in self.last.specs}
        tiers = serve_tiers(Engine(), self.ledger, reference,
                            heldout_reference(self.seed), self.seed)
        return {**tea_metrics(tea_of(self.rows)),
                **tier_metrics(tiers["errors"])}


def tea_of(rows: dict) -> dict:
    return {name: row[TEA] for name, row in rows.items()}


class Fig5Cold(Workload):
    """Fig 5 on an empty store: 15 kernels, detailed tier, 5 samplers."""

    name = "fig5-cold"

    def setup(self) -> None:
        # Inputs from the seed: each kernel's spec, program and initial
        # state, built once here to validate them.
        for spec in kernel_specs(self.seed).values():
            engine_runs.build_workload(spec).fresh_state()

    def run_pass(self) -> Pass:
        store = RunStore(self.fresh_dir())
        engine = Engine(store=store)
        runner = SeededRunner(self.seed, scale=SCALE, engine=engine)
        done = Pass(store, engine)
        self.rows = self._fig5(runner, done, cold={})
        self.last = done
        return done

    def accuracy(self) -> dict:
        """First checks, once per run, that a warm Fig 5 from the last
        pass's store reproduces every error exactly without simulating."""
        engine = Engine(store=RunStore(self.last.store.root))
        runner = SeededRunner(self.seed, scale=SCALE, engine=engine)
        self._fig5(runner, Pass(engine.store, engine), cold=self.rows)
        return super().accuracy()


class SampledTier(Workload):
    """The sampled and functional tiers against an in-process detailed
    reference, on the 15 kernels plus held-out scenarios."""

    name = "sampled-tier"

    def setup(self) -> None:
        self.reference = {name: engine_runs.simulate_spec(spec)
                          for name, spec in kernel_specs(self.seed).items()}
        self.heldout = heldout_reference(self.seed)

    def run_pass(self) -> Pass:
        store = RunStore(self.fresh_dir())
        engine = Engine(store=store)
        done = Pass(store, engine)
        self.tiers = serve_tiers(engine, self.ledger, self.reference,
                                 self.heldout, self.seed)
        sampled = [run.result for run in self.tiers["sampled"].values()]
        done.ff_share = (sum(r.ff_committed for r in sampled)
                         / sum(r.committed for r in sampled))
        self.last = done
        return done

    def digest_runs(self) -> dict:
        runs = {f"{label}/sampled": run
                for label, run in self.tiers["sampled"].items()}
        runs.update({f"{label}/functional": run
                     for label, run in self.tiers["functional"].items()})
        runs.update({f"{label}/detailed": run
                     for label, run in self.reference.items()})
        return runs

    def accuracy(self) -> dict:
        problems = [p for name, run in self.reference.items()
                    for p in golden_problems(name, run.result)]
        self.ledger.run("reference", lambda: (None, problems))
        tea = {name: tea_error(run) for name, run in self.reference.items()}
        return {**tea_metrics(tea), **tier_metrics(self.tiers["errors"])}


class AnalyzeWarm(Workload):
    """Capture once, query many: Fig 5 served warm, trace queries and
    static predictions over the 15 kernels."""

    name = "analyze-warm"

    def setup(self) -> None:
        self.drop_dirs()
        self.root = self.fresh_dir()
        store = RunStore(self.root)
        self.specs = kernel_specs(self.seed)
        self.cold = {}
        for name, spec in self.specs.items():
            with self.tracer.kernel(name):
                run, trace = capture.capture_run(spec)
            store.save(spec, run_to_payload(spec, run))
            store.save_trace(spec, trace)
            self.cold[name] = error_rows(run)

    def run_pass(self) -> Pass:
        store = RunStore(self.root)
        engine = Engine(store=store)
        runner = SeededRunner(self.seed, scale=SCALE, engine=engine)
        done = Pass(store, engine)
        self.rows = self._fig5(runner, done, cold=self.cold)

        for name, spec in self.specs.items():
            run = engine.run(spec)  # memo hit: the run served above
            with self.tracer.kernel(name):
                trace = store.load_trace(spec)
            if trace is None:
                self.ledger.run(f"query/{name}", lambda n=name: (
                    None, [f"{n}: trace sidecar missing"]))
                continue
            try:
                self._queries(name, TraceQuery(trace, run.workload.program),
                              run.result)
            finally:
                trace.close()

        def predict(name: str):
            program = engine.run(self.specs[name]).workload.program
            prediction = analyzer.predict_program(program)
            done.blocks += len(prediction.blocks)
            problems = [
                f"{name}: block {leader} has no bound"
                for leader, block in prediction.blocks.items()
                if not block.bounds or block.binding not in block.bounds
                or not math.isfinite(block.cycles) or block.cycles <= 0
            ]
            if not prediction.blocks:
                problems.append(f"{name}: no basic blocks predicted")
            return None, problems

        for name in KERNELS:
            self.ledger.run(f"predict/{name}", predict, name, kernel=name)
        self.last = done
        return done

    def _queries(self, name: str, query: TraceQuery, result) -> None:
        def attribute():
            # Same keys, same values; the offline replay adds each
            # key's cycles in another order than the live core, so the
            # last bits may differ (as the repository's own replay test
            # allows).
            raw = query.attribute()
            golden = result.golden_raw
            same = raw.keys() == golden.keys() and all(
                math.isclose(raw[key], value, rel_tol=1e-9)
                for key, value in golden.items())
            return None, ([] if same else
                          [f"{name}: trace attribution != golden_raw"])

        def top():
            rows = query.top(k=5, by="bb")
            return None, ([] if rows else [f"{name}: empty top-5"])

        def flush_histogram():
            total = sum(query.flush_histogram(per="bb").values())
            flushed = result.state_cycles.get(CommitState.FLUSHED, 0)
            return None, ([] if total == flushed else [
                f"{name}: flush histogram {total} != FLUSHED {flushed}"])

        self.ledger.run(f"attribute/{name}", attribute, kernel=name)
        self.ledger.run(f"top/{name}", top, kernel=name)
        self.ledger.run(f"flush/{name}", flush_histogram, kernel=name)


WORKLOADS = {cls.name: cls for cls in (Fig5Cold, SampledTier, AnalyzeWarm)}

