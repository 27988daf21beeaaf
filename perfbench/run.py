"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig5-cold --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics: three set-ups, each
followed by a third of ``--seconds`` of passes in a closed loop (at
least one pass each), then the once-per-run checks; host times are
normalised for the host's speed (``hostspeed.py``). ``--trace 1``
measures the per-layer metrics: plain and traced passes alternate,
spans are written to ``.perfbench-out/``, and the layer probes run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Set-ups per end-to-end run, each followed by at least one pass;
#: ``setup_s`` is their median.
SETUPS = 3
#: Plain and traced passes each, alternating, in a traced run.
TRACED_PAIRS = 2

#: Span layers whose self time the traced run reports.
LAYERS = ("experiments", "engine", "workloads", "uarch", "backends",
          "core", "trace", "predict")


def run_digest(run) -> str:
    """Hash of one run's simulated statistics (exact float values)."""
    result = run.result

    def raw(profile):
        return sorted([i, p, float(v).hex()] for (i, p), v in profile.items())

    record = {
        "cycles": result.cycles,
        "committed": result.committed,
        "golden_raw": raw(result.golden_raw),
        "state_cycles": sorted(
            [state.name, count] for state, count in
            result.state_cycles.items()),
        "samplers": {key: raw(sampler.raw)
                     for key, sampler in sorted(run.samplers.items())},
    }
    blob = json.dumps(record, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def print_digest(workload, seed: int) -> None:
    total = hashlib.sha256()
    for label, run in sorted(workload.digest_runs().items()):
        digest = run_digest(run)
        total.update(f"{label}={digest}\n".encode())
        print(f"digest {label} {digest[:16]}")
    print(f"digest {workload.name} seed={seed} {total.hexdigest()}")


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def measure(workload, tracer, seconds: int) -> dict:
    """End-to-end metrics: set-ups and closed-loop passes, then checks.

    Each set-up is followed by its share of the measuring time, so the
    passes sample the host over the whole run rather than one stretch
    of it. Calibration slices follow every set-up and pass, and the
    host-time metrics are divided by the run's host factor (see
    ``hostspeed.py``).
    """
    from hostspeed import HostClock

    clock = HostClock()
    # (seconds, spans recorded) of each set-up and each pass.
    setups, passes = [], []

    def phase(fn, into: list):
        mark = len(tracer.spans)
        value, took = timed(fn)
        into.append((took, tracer.since(mark)))
        clock.after(took)
        return value

    for _ in range(SETUPS):
        phase(workload.setup, setups)
        start = time.perf_counter()
        while True:
            done = phase(workload.run_pass, passes)
            workload.drop_dirs(keep=done.store.root)
            if time.perf_counter() - start >= seconds / SETUPS:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = {
        "setup_s": statistics.median(s for s, _ in setups),
        "wall_s": statistics.median(s for s, _ in passes),
        # Over the passes, or over the set-ups for a workload whose
        # passes never simulate.
        "sim_kips": sim_kips(passes) or sim_kips(setups),
    }
    factor = clock.factor()
    metrics = {
        "setup_s": raw["setup_s"] / factor,
        "wall_s": raw["wall_s"] / factor,
        "peak_rss_mb": peak_rss_mb,
        "sim_kips": raw["sim_kips"] * factor,
    }
    metrics.update(workload.accuracy())
    print("passes " + " ".join(f"{s:.3f}" for s, _ in passes)
          + "; set-ups " + " ".join(f"{s:.3f}" for s, _ in setups)
          + " (raw s)")
    print(f"host slowness {clock.slowness():.4f} over {len(clock.slices)} "
          f"calibration slices, factor {factor:.4f}; raw "
          + " ".join(f"{name} = {value!r}" for name, value in raw.items()))
    return metrics


def sim_kips(phases: list) -> float:
    """Committed simulated instructions per host second inside the
    simulate calls of *phases*; 0 when they hold no simulate call."""
    from spans import throughput
    from suite import SIM_SPANS

    return throughput([s for _, spans in phases for s in spans],
                      SIM_SPANS) / 1e3


def layer_metrics(spans: list, done, tracer) -> dict:
    """Per-layer metrics of one traced pass."""
    from spans import ID, LAYER, NAME, self_times, total

    own = self_times(spans)

    def self_s(field: int, value: str) -> float:
        return sum(own[s[ID]] for s in spans if s[field] == value)

    store = done.store
    loads = store.hits + store.misses
    metrics = {
        "runtime.gc_s": tracer.gc_s,
        "runtime.gc_collections": tracer.gc_collections,
        "engine.run_overhead_s": self_s(NAME, "Engine.run"),
        "engine.store_load_s": total(spans, "RunStore.load")
        + total(spans, "run_from_payload"),
        "engine.store_save_s": total(spans, "run_to_payload")
        + total(spans, "RunStore.save"),
        "engine.payload_bytes": sum(
            p.stat().st_size for p in store.runs_dir.rglob("*.json")),
        "engine.store_hit_ratio": store.hits / loads if loads else 0.0,
        "core.error_s": total(spans, "pics_error"),
        "workloads.build_s": total(spans, "build_workload"),
        "backends.sampled_s": total(spans, "SampledBackend.simulate"),
        "backends.ff_share": done.ff_share,
        "trace.load_s": total(spans, "TraceStore.load"),
        "trace.attribute_s": total(spans, "TraceQuery.attribute"),
        "trace.top_s": self_s(NAME, "TraceQuery.top"),
        "trace.flush_hist_s": total(spans, "TraceQuery.flush_histogram"),
        "predict.blocks_per_s": (
            done.blocks / total(spans, "predict_program")
            if done.blocks else 0.0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s(LAYER, layer)
    return metrics


def measure_layers(workload, tracer, ledger, out: Path) -> dict:
    """Per-layer metrics: plain and traced passes, then the probes."""
    import probes
    from spans import LAYER_TARGETS
    from suite import kernel_specs

    depth = tracer.instrument(LAYER_TARGETS)
    try:
        workload.setup()
    finally:
        tracer.restore(depth)
    plain, traced = [], []
    for _ in range(TRACED_PAIRS):
        done, wall = timed(workload.run_pass)
        plain.append(wall)
        workload.drop_dirs(keep=done.store.root)
        depth = tracer.instrument(LAYER_TARGETS)
        tracer.gc_s, tracer.gc_collections = 0.0, 0
        mark = len(tracer.spans)
        try:
            with tracer.gc_timing():
                done, wall = timed(workload.run_pass)
        finally:
            tracer.restore(depth)
        traced.append(wall)
        workload.drop_dirs(keep=done.store.root)
    metrics = layer_metrics(tracer.since(mark), done, tracer)
    metrics["bench.trace_overhead"] = (
        statistics.median(traced) / statistics.median(plain) - 1)
    specs = kernel_specs(workload.seed)
    metrics.update(probes.stream_probe(tracer, specs))
    metrics.update(probes.sampler_probe(tracer, ledger, specs))
    tracer.write(out)
    print(f"spans {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    print("plain passes " + " ".join(f"{w:.3f}" for w in plain)
          + "; traced passes " + " ".join(f"{w:.3f}" for w in traced))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig5-cold", "sampled-tier",
                                 "analyze-warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from repro import obs
    from spans import SIM_TARGETS, Tracer
    from suite import SCALE, WORKLOADS, Ledger

    if obs.enabled():
        obs.disable()  # the library's own instrumentation stays off
    scratch = ROOT / ".perfbench-tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    ledger = Ledger(tracer)
    workload = WORKLOADS[args.workload](args.seed, scratch, tracer, ledger)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"scale={SCALE} seconds={args.seconds} trace={args.trace}")
    print("accuracy compares the model with itself (TEA against the golden "
          "reference, the sampled tier against the detailed tier); the "
          "model is not validated against hardware")
    tracer.instrument(SIM_TARGETS)
    try:
        if args.trace:
            out = (ROOT / ".perfbench-out"
                   / f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics = measure_layers(workload, tracer, ledger, out)
        else:
            metrics = measure(workload, tracer, args.seconds)
            metrics["ok_ratio"] = 1 - ledger.failed / ledger.attempted
        print_digest(workload, args.seed)
    finally:
        tracer.restore()
        shutil.rmtree(scratch, ignore_errors=True)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"] for metric in
             listed["per_layer" if args.trace else "end_to_end"]}
    if units.keys() != metrics.keys():
        print("perfbench: metrics disagree with BENCHMARK.json: "
              f"{sorted(units.keys() ^ metrics.keys())}", file=sys.stderr)
        return 1
    for problem in ledger.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    if not args.trace:
        # Not a JSON metric: it is 0 whenever nothing fails.
        print(f"failed_ratio = {ledger.failed / ledger.attempted!r} ratio "
              f"({ledger.failed} of {ledger.attempted} operations)")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
