"""Static port/queue mapping derived from :class:`CoreConfig`.

The :class:`PortModel` answers, for one static instruction, the three
questions the analytical bounds need: which issue queue serves it, how
many cycles its result takes (the *latency* a dependent must wait), and
how much issue bandwidth it consumes (the *reciprocal throughput*).
Everything is read off the core configuration -- issue widths, the
per-class latency table, the unpipelined set -- plus one memory-system
assumption: loads hit the L1 and take the configured load-to-use
latency. That assumption is exactly what the refine loop later tries
to refute.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.isa.instructions import StaticInst
from repro.isa.opcodes import OpClass
from repro.uarch.config import CoreConfig

#: Pseudo-queues shared by every instruction regardless of class.
COMMIT = "commit"
FRONTEND = "frontend"


@dataclass(frozen=True)
class InstCost:
    """Static cost model of one instruction.

    Attributes:
        index: Program index of the instruction.
        op_class: Operation class the cost was derived from.
        queue: Issue queue ("int" / "mem" / "fp") serving the class.
        latency: Result latency in cycles (what a dependent waits).
        recip_throughput: Issue-bandwidth cost in cycles: ``1/width``
            for pipelined classes, ``latency/width`` for unpipelined
            ones (the unit is busy for the full latency).
        unpipelined: True when the class blocks its unit end-to-end.
    """

    index: int
    op_class: OpClass
    queue: str
    latency: int
    recip_throughput: float
    unpipelined: bool


@dataclass
class PortModel:
    """Queue/latency/throughput model read off a core configuration.

    Args:
        config: Core parameters; defaults to the paper baseline.
        latency_override: Per-class latency replacements, applied on
            top of ``config.latencies``. Used by tests and the refine
            acceptance check to inject a *sabotaged* FU table.
    """

    config: CoreConfig = field(default_factory=CoreConfig)
    latency_override: dict[OpClass, int] = field(default_factory=dict)
    # One (queue, latency, recip_throughput, unpipelined) row per op
    # class, derived on first use; not an init field, so the copies
    # sabotage()/replace() make start empty.
    _rows: dict[OpClass, tuple[str, int, float, bool]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def latency_of(self, op_class: OpClass) -> int:
        """Result latency for *op_class* under this model.

        Loads are not in the config latency table (their latency is a
        memory-system outcome); the static model assumes the L1 hit
        load-to-use latency.
        """
        if op_class in self.latency_override:
            return self.latency_override[op_class]
        if op_class is OpClass.LOAD:
            return self.config.memory.l1d_latency
        return self.config.latencies.get(op_class, 1)

    def _row(self, op_class: OpClass) -> tuple[str, int, float, bool]:
        """The port row of *op_class*, derived once per model."""
        row = self._rows.get(op_class)
        if row is None:
            queue = self.config.queue_of(op_class)
            latency = self.latency_of(op_class)
            unpipelined = op_class in self.config.unpipelined
            width = self.config.issue_width[queue]
            recip = (latency if unpipelined else 1) / width
            row = self._rows[op_class] = (queue, latency, recip, unpipelined)
        return row

    def cost(self, inst: StaticInst) -> InstCost:
        """Classify one static instruction into its port mapping."""
        op_class = inst.op_class
        queue, latency, recip, unpipelined = self._row(op_class)
        return InstCost(
            index=inst.index,
            op_class=op_class,
            queue=queue,
            latency=latency,
            recip_throughput=recip,
            unpipelined=unpipelined,
        )

    def block_costs(
        self, insts: tuple[StaticInst, ...]
    ) -> tuple[InstCost, ...]:
        """Costs for every instruction of a block, in program order."""
        return tuple(self.cost(inst) for inst in insts)

    def queue_pressure(
        self, costs: tuple[InstCost, ...]
    ) -> dict[str, float]:
        """Cycles of issue bandwidth each queue spends per block pass.

        Also reports the ``commit`` and ``frontend`` pseudo-queues:
        every instruction costs ``1/commit_width`` at retirement and
        ``1/decode_width`` in the front end.
        """
        pressure: dict[str, float] = {}
        for cost in costs:
            pressure[cost.queue] = (
                pressure.get(cost.queue, 0.0) + cost.recip_throughput
            )
        n = len(costs)
        pressure[COMMIT] = n / self.config.commit_width
        pressure[FRONTEND] = n / self.config.decode_width
        return pressure

    def sabotage(self, overrides: dict[OpClass, int]) -> PortModel:
        """A copy of this model with *overrides* patched into it.

        The refine acceptance criterion needs a deliberately wrong FU
        latency table; this keeps the mutation explicit and the
        original model intact.
        """
        merged = dict(self.latency_override)
        merged.update(overrides)
        return replace(self, latency_override=merged)
