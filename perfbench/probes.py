"""Layer probes of the traced run.

Spans at the public calls cannot split a detailed simulation into its
interpreter, memory, branch and sampler parts, because those run inside
one ``simulate`` call. The probes measure those layers beside it:

* each kernel's committed stream, drained through ``Interpreter.run``
  and ``simulate_functional``, then its recorded load/store addresses
  and conditional-branch outcomes replayed through a fresh
  ``MemoryHierarchy`` and ``BranchPredictor``;
* each kernel simulated with no samplers and with Fig 5's five, twice
  each, whose difference is the samplers' marginal cost. The runs must
  agree cycle for cycle, because samplers only observe.

The detailed runs also give the simulated counts a speed-only change
must leave identical.
"""

from __future__ import annotations

from repro.backends import functional
from repro.branch.predictor import BranchPredictor
from repro.core.samplers import make_sampler
from repro.core.states import CommitState
from repro.engine import runs as engine_runs
from repro.isa.interpreter import Interpreter
from repro.isa.opcodes import BRANCH_OPS, MEMORY_READ_OPS, MEMORY_WRITE_OPS
from repro.memory.hierarchy import MemoryHierarchy
from repro.uarch.core import simulate

from spans import END, START, throughput

MEMORY_REPLAY = "MemoryHierarchy.access_*"
BRANCH_REPLAY = "BranchPredictor.predict_direction/update"


def stream_probe(tracer, specs: dict) -> dict:
    """Interpreter, functional-tier, memory and branch throughput."""
    mark = len(tracer.spans)
    for name, spec in specs.items():
        with tracer.kernel(name):
            _replay(tracer, engine_runs.build_workload(spec))
    spans = tracer.since(mark)
    return {
        "isa.interp_kips": throughput(spans, ("Interpreter.run",)) / 1e3,
        "isa.functional_kips":
            throughput(spans, ("simulate_functional",)) / 1e3,
        "memory.replay_accesses_per_s": throughput(spans, (MEMORY_REPLAY,)),
        "branch.replay_updates_per_s": throughput(spans, (BRANCH_REPLAY,)),
    }


def _replay(tracer, workload) -> None:
    program = workload.program
    with tracer.span("Interpreter.run", "isa") as record:
        for _ in Interpreter(program, workload.fresh_state()).run():
            record[0] += 1
    functional.simulate_functional(program,
                                   arch_state=workload.fresh_state())
    accesses = []
    branches = []
    for dyn in Interpreter(program, workload.fresh_state()).run():
        op = dyn.static.op
        if op in MEMORY_READ_OPS:
            accesses.append((False, dyn.eff_addr, dyn.seq))
        elif op in MEMORY_WRITE_OPS:
            accesses.append((True, dyn.eff_addr, dyn.seq))
        elif op in BRANCH_OPS:
            branches.append((dyn.static.index, dyn.taken, dyn.next_index))
    with tracer.span(MEMORY_REPLAY, "memory") as record:
        hierarchy = MemoryHierarchy()
        load, store = hierarchy.access_load, hierarchy.access_store
        for is_store, addr, now in accesses:
            if is_store:
                store(addr, now)
            else:
                load(addr, now)
        record[0] = len(accesses)
    with tracer.span(BRANCH_REPLAY, "branch") as record:
        predictor = BranchPredictor()
        predict, update = predictor.predict_direction, predictor.update
        for pc, taken, target in branches:
            predict(pc)
            update(pc, taken, target)
        record[0] = len(branches)


def sampler_probe(tracer, ledger, specs: dict) -> dict:
    """Core speed, the samplers' marginal cost and simulated counts."""
    bare_s = sampled_s = 0.0
    cycles = committed = 0
    states = dict.fromkeys(CommitState, 0)
    l1d_accesses = l1d_misses = llc_misses = 0
    branches = mispredicts = samples = 0
    for name, spec in specs.items():
        workload = engine_runs.build_workload(spec)
        seconds = {0: [], 5: []}
        runs = {}
        # Order 0, 5, 5, 0 and the faster of each pair: the samplers'
        # marginal cost is a few percent, below the host's drift.
        for count in (0, 5, 5, 0):
            samplers = [make_sampler(technique, period, jitter=spec.jitter,
                                     seed=seed)
                        for _, technique, period, seed
                        in spec.sampler_plan()][:count]
            with tracer.kernel(name), tracer.span(
                    f"simulate[{count} samplers]", "uarch") as record:
                result = simulate(workload.program, samplers=samplers,
                                  arch_state=workload.fresh_state())
                record[0] = result.cycles
            span = tracer.spans[-1]
            seconds[count].append(span[END] - span[START])
            runs[count] = (result, samplers)
        bare_s += min(seconds[0])
        sampled_s += min(seconds[5])
        bare = runs[0][0]
        full, full_samplers = runs[5]
        same = (bare.cycles == full.cycles
                and bare.golden_raw == full.golden_raw)
        ledger.run(f"samplers/{name}", lambda: (None, [] if same else [
            f"{name}: samplers changed the simulation"]), kernel=name)
        cycles += full.cycles
        committed += full.committed
        for state, count in full.state_cycles.items():
            states[state] += count
        l1d = full.hierarchy.l1d.stats
        l1d_accesses += l1d.accesses
        l1d_misses += l1d.misses
        llc_misses += full.hierarchy.llc.stats.misses
        branches += full.predictor.stats.branches
        mispredicts += full.predictor.stats.mispredicts
        samples += sum(s.samples_taken for s in full_samplers)
    metrics = {
        "uarch.cycles_per_s": cycles / bare_s,
        "core.samplers_marginal_s": sampled_s - bare_s,
        "uarch.ipc": committed / cycles,
    }
    for state, count in states.items():
        metrics[f"uarch.state_share.{state.name.lower()}"] = count / cycles
    metrics.update({
        "memory.l1d_miss_ratio": l1d_misses / l1d_accesses,
        "memory.llc_mpki": 1e3 * llc_misses / committed,
        "branch.mispredict_rate": mispredicts / branches,
        "core.samples_taken": samples,
    })
    return metrics
