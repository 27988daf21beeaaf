"""Host-speed calibration for the end-to-end host-time metrics.

The benchmark runs on a few cores of a shared host whose speed drifts:
a fixed pure-Python loop here takes up to twice as long for minutes at
a time while other tenants are busy, and process CPU time rises with
wall time, so neither clock can tell the program's cost from the
host's state. A run therefore times a fixed calibration loop, in short
slices after each phase it measures, so that the slices sample the
host in proportion to the measured time, and divides each host-time
metric by the run's *host factor*:

    factor = (mean slice time / REFERENCE_S) ** ELASTICITY

The calibration loop is stdlib-only and never touches the program, so
a change to the program cannot move it. ``ELASTICITY`` is how strongly
the program's time follows the calibration's when the host's state
changes (see ``README.md``, "Host-speed normalisation"). A normalised
time reads as the time on a host on which one slice takes
``REFERENCE_S`` seconds, which is close to the raw time on a quiet host
of this kind. The raw figures are printed beside the normalised ones.
"""

from __future__ import annotations

import time
from statistics import fmean

#: Nominal time of one calibration slice; the slowness is 1 when a
#: slice takes exactly this long.
REFERENCE_S = 0.1
#: Loop iterations in one slice (about ``REFERENCE_S`` on a quiet
#: 2-vCPU Xeon VM).
SLICE_ITERS = 400_000
#: Calibration time per second of measured time.
SHARE = 0.08
#: Log-log slope of the program's time against the calibration
#: loop's, fitted over 16-second windows while the host's load moved
#: the loop's time by 2x: 0.74-0.77 for a detailed simulate and for an
#: ``analyze-warm`` pass (correlation 0.94-0.96).
ELASTICITY = 0.75

#: The calibration loop's working set: built once, only read.
_TABLE = {i: (i * 40503) & 0xFFFF for i in range(4096)}
_CELLS = [(i * 2654435761) & 0xFFFF for i in range(1 << 16)]


class _Box:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a, self.b = 3, 0


_BOX = _Box()


def _step(x: int, box: _Box, table: dict, cells: list) -> int:
    return (x * 31 + table[x & 4095] + cells[x & 0xFFFF] + box.a) & 0xFFFFF


def calibration_slice() -> int:
    """The fixed calibration work: calls, attribute, dict and list
    reads and integer arithmetic, and no allocation the cyclic
    collector tracks."""
    box, table, cells = _BOX, _TABLE, _CELLS
    x = 1
    for i in range(SLICE_ITERS):
        x = _step(x ^ i, box, table, cells)
        if x & 3:
            box.b = x
    return x


class HostClock:
    """Calibration slices timed between the measured phases of a run."""

    def __init__(self) -> None:
        calibration_slice()  # warm-up, untimed
        self.slices: list[float] = []

    def after(self, measured_s: float) -> None:
        """Time slices worth ``SHARE`` of *measured_s* (at least one)
        right after a measured phase."""
        for _ in range(max(1, round(SHARE * measured_s / REFERENCE_S))):
            start = time.perf_counter()
            calibration_slice()
            self.slices.append(time.perf_counter() - start)

    def slowness(self) -> float:
        """Mean slice time over ``REFERENCE_S``: 1 on the reference
        host, 1.5 on a host on which the loop takes half again as
        long."""
        return fmean(self.slices) / REFERENCE_S

    def factor(self) -> float:
        """What the run's host times are divided by (a rate
        multiplied)."""
        return self.slowness() ** ELASTICITY
