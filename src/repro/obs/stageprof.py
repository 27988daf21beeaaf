"""Simulator self-profiling: wall time per pipeline stage per window.

TEA explains where *simulated* time goes; this module explains where
the *simulator's* time goes -- the gem5 call-stack-profiling lesson
that profiling the model itself is how you find model bugs and hot
paths. :meth:`StageProfiler.attach` times the model that actually runs:
it replaces the stage methods :meth:`Core.step` already calls
(``_commit``, ``_fetch``, ...) with timing wrappers set as instance
attributes on one core, and wraps ``step`` itself to accumulate
structure occupancy and flush windows. ``step()`` carries no
instrumentation of its own, so every caller that steps the core -- a
detailed run, a sampled measurement window, a multicore co-run -- is
profiled the same way. Wrappers record *self* time: a stage called
from inside another (the sampler poll inside ``_fast_forward``) is
charged to itself only, so the stage totals never double-count. Work
``step()`` does inline (commit-state classification and golden
attribution) belongs to no stage; it shows as the ``core.run:`` span
minus the stage sum.

Every *window_cycles* simulated cycles the profiler flushes into the
span collector:

* one ``"X"`` span per pipeline stage on a dedicated, named thread
  track (``stage:commit``, ``stage:fetch``, ...), with the wall time
  the stage cost inside that window;
* ``"C"`` counter samples for window throughput (simulated cycles per
  wall second), per-stage wall milliseconds, and average structure
  occupancy (ROB, fetch buffer, issue queues).

At the end (``Core._finish``) it emits one ``core.run:<name>`` span
covering the profiled core's life and adds run totals to the counter
registry (``core.stage_s.<stage>``, ``core.occupancy.<structure>``),
so the registry snapshot answers "which stage dominates" without
opening the trace. Only ever attached while instrumentation is enabled
-- an uninstrumented core never touches this module.
"""

from __future__ import annotations

import os
from time import perf_counter

from repro.obs.counters import COUNTERS
from repro.obs.spans import COLLECTOR, now_us

#: Environment override for the flush window (simulated cycles).
WINDOW_ENV = "REPRO_OBS_WINDOW"

#: Default flush window in simulated cycles.
DEFAULT_WINDOW_CYCLES = 250_000

#: Pipeline stages, in ``step()`` order, and the core method each times.
STAGE_METHODS = (
    ("events", "_process_events"),  # completion/writeback events
    ("commit", "_commit"),          # retirement (attribution is inline)
    ("sample", "_poll_samplers"),   # sampler polling, incl. in idle skips
    ("issue", "_issue"),            # issue/execute
    ("dispatch", "_dispatch"),      # rename + dispatch
    ("fetch", "_fetch"),            # fetch + branch prediction
    ("drain", "_start_drain"),      # post-commit store drain
    ("idle", "_fast_forward"),      # exact fast-forward bookkeeping
)

#: Stage names, in ``step()`` order.
STAGES = tuple(stage for stage, _method in STAGE_METHODS)

#: Synthetic tid base for the per-stage trace tracks.
_STAGE_TID_BASE = 9000


def window_cycles_default() -> int:
    """The flush window: ``$REPRO_OBS_WINDOW`` or the default."""
    raw = os.environ.get(WINDOW_ENV, "")
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_WINDOW_CYCLES
    return value if value > 0 else DEFAULT_WINDOW_CYCLES


class StageProfiler:
    """Accumulates per-stage wall time and occupancy; flushes windows.

    Args:
        name: Label of the profiled run (usually the program name).
        window_cycles: Simulated cycles per flush window (default:
            :func:`window_cycles_default`).
    """

    def __init__(
        self, name: str, window_cycles: int | None = None
    ) -> None:
        self.name = name
        self.window_cycles = (
            window_cycles_default()
            if window_cycles is None
            else max(1, int(window_cycles))
        )
        self._acc = [0.0] * len(STAGES)
        self._totals = [0.0] * len(STAGES)
        # Occupancy sums, weighted by simulated cycles covered.
        self._occ_keys = ("rob", "fetch_buffer", "iq_int", "iq_mem",
                          "iq_fp")
        self._occ_sums = [0.0] * len(self._occ_keys)
        self._occ_totals = [0.0] * len(self._occ_keys)
        self._cycles_seen = 0
        self._total_cycles = 0
        self._window_start_cycle = 0
        self._window_start_us = self._start_us = now_us()
        self._named_tracks = False
        self.windows_flushed = 0
        # Wall time of stages nested inside the running wrapper, so
        # each wrapper can charge its own self time (see _timed).
        self._nested = [0.0]

    # -- attaching to a core -------------------------------------------
    @classmethod
    def attach(cls, core) -> "StageProfiler":
        """Profile *core* by wrapping the methods its ``step()`` calls.

        The wrappers are instance attributes, so they shadow the class
        methods for this core only and results stay bit-identical:
        they call the original method with the original arguments and
        only read the clock and the core's structure sizes.
        """
        prof = cls(core.program.name)
        for index, (_stage, method) in enumerate(STAGE_METHODS):
            setattr(core, method, prof._timed(index, getattr(core, method)))
        step = core.step
        rob = core.rob
        fetch_buffer = core.fetch_buffer
        iq_occ = core._iq_occ

        def profiled_step(horizon: int | None = None) -> None:
            before = core.cycle
            step(horizon)
            cycle = core.cycle
            # Occupancy is unchanged across fast-forwarded cycles
            # (nothing progressed), so weighting by the cycles this
            # step advanced yields exact per-simulated-cycle averages.
            prof.occupancy(
                len(rob), len(fetch_buffer), iq_occ["int"],
                iq_occ["mem"], iq_occ["fp"], cycle - before,
            )
            prof.maybe_flush(cycle)

        core.step = profiled_step
        return prof

    def _timed(self, index: int, method):
        """Wrap *method* to charge its self time to stage *index*."""
        acc = self._acc
        nested = self._nested
        perf = perf_counter

        def timed(*args):
            outer = nested[0]
            nested[0] = 0.0
            start = perf()
            result = method(*args)
            elapsed = perf() - start
            acc[index] += elapsed - nested[0]
            nested[0] = outer + elapsed
            return result

        return timed

    # -- feeds ---------------------------------------------------------
    def add(self, stage: int, seconds: float) -> None:
        """Accumulate *seconds* of wall time against a stage index."""
        self._acc[stage] += seconds

    def occupancy(
        self,
        rob: int,
        fetch_buffer: int,
        iq_int: int,
        iq_mem: int,
        iq_fp: int,
        cycles: int,
    ) -> None:
        """Accumulate structure occupancy over *cycles* simulated cycles."""
        sums = self._occ_sums
        sums[0] += rob * cycles
        sums[1] += fetch_buffer * cycles
        sums[2] += iq_int * cycles
        sums[3] += iq_mem * cycles
        sums[4] += iq_fp * cycles
        self._cycles_seen += cycles

    def maybe_flush(self, cycle: int) -> None:
        """Flush the window if *cycle* crossed its boundary."""
        if cycle - self._window_start_cycle >= self.window_cycles:
            self.flush(cycle)

    # -- window flushing -----------------------------------------------
    def _name_tracks(self) -> None:
        for index, stage in enumerate(STAGES):
            COLLECTOR.add_thread_name(
                _STAGE_TID_BASE + index, f"stage:{stage}"
            )
        self._named_tracks = True

    def flush(self, cycle: int) -> None:
        """Emit this window's spans and counter samples; reset."""
        if not self._named_tracks:
            self._name_tracks()
        now = now_us()
        start = self._window_start_us
        cycles = cycle - self._window_start_cycle
        acc = self._acc
        stage_ms: dict[str, float] = {}
        for index, stage in enumerate(STAGES):
            seconds = acc[index]
            self._totals[index] += seconds
            if seconds <= 0.0:
                continue
            stage_ms[stage] = round(seconds * 1e3, 6)
            COLLECTOR.add_complete(
                f"stage:{stage}",
                start,
                int(seconds * 1e6),
                {"cycles": cycles, "window_end_cycle": cycle},
                cat="core-stage",
                tid=_STAGE_TID_BASE + index,
            )
        wall_s = max((now - start) / 1e6, 1e-9)
        COUNTERS.sample(
            f"core.{self.name}.throughput",
            {"cycles_per_sec": round(cycles / wall_s, 1)},
            ts_us=start,
        )
        if stage_ms:
            COUNTERS.sample(
                f"core.{self.name}.stage_ms", stage_ms, ts_us=start
            )
        if self._cycles_seen:
            seen = self._cycles_seen
            occ = {
                key: round(self._occ_sums[index] / seen, 3)
                for index, key in enumerate(self._occ_keys)
            }
            COUNTERS.sample(
                f"core.{self.name}.occupancy", occ, ts_us=start
            )
            for index in range(len(self._occ_keys)):
                self._occ_totals[index] += self._occ_sums[index]
                self._occ_sums[index] = 0.0
        self._total_cycles += cycles
        self._cycles_seen = 0
        for index in range(len(acc)):
            acc[index] = 0.0
        self._window_start_cycle = cycle
        self._window_start_us = now
        self.windows_flushed += 1

    def finish(self, cycle: int) -> None:
        """Flush the trailing partial window and report run totals."""
        self.flush(cycle)
        COLLECTOR.add_complete(
            f"core.run:{self.name}",
            self._start_us,
            max(self._window_start_us - self._start_us, 0),
            {"cycles": self._total_cycles},
        )
        for index, stage in enumerate(STAGES):
            COUNTERS.inc(f"core.stage_s.{stage}", self._totals[index])
        if self._total_cycles:
            total = self._total_cycles
            for index, key in enumerate(self._occ_keys):
                COUNTERS.gauge(
                    f"core.occupancy.{key}",
                    self._occ_totals[index] / total,
                )
