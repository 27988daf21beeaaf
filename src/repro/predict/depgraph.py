"""Register dependency graphs over one basic block.

Two edge families matter for the analytical bounds:

* *intra-iteration* edges -- a consumer reads a register whose latest
  writer sits earlier in the same block. These bound one pass through
  the block (the critical path).
* *loop-carried* edges -- for self-loop blocks only: a consumer reads a
  register whose only writer in the block sits at or after it, i.e.
  the value arrives from the previous iteration. Distance-1 cycles
  through these edges bound the steady-state iteration time (the
  recurrence), exactly the ``LCD`` of OSACA-style analysis.

Registers are tracked by their encoded numbers; ``x0`` is hard-wired
zero, so reads of it never depend on anything and writes to it produce
nothing. Memory-carried dependencies (store-to-load through the same
address) are *not* modelled -- a documented bias the refine loop can
surface.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.isa.instructions import NO_REG, StaticInst
from repro.predict.ports import InstCost

#: Encoded register number of the hard-wired zero register.
ZERO_REG = 0


@dataclass(frozen=True)
class DepEdge:
    """One register dependency between two block positions.

    Attributes:
        src: Block-local position of the producer.
        dst: Block-local position of the consumer.
        reg: Encoded register carrying the value.
        loop_carried: True when the value crosses an iteration
            boundary (producer position >= consumer position).
    """

    src: int
    dst: int
    reg: int
    loop_carried: bool


#: ``(src, dst, reg, loop_carried)`` -- the fields of a :class:`DepEdge`.
Edge = tuple[int, int, int, bool]


def dependency_edges(
    sources: Sequence[tuple[int, ...]],
    dests: Sequence[int],
    loop: bool,
) -> list[Edge]:
    """Register dependency edges of one block, in consumer order.

    Args:
        sources: Each position's source registers, in operand order.
        dests: Each position's destination register (``NO_REG`` if
            none).
        loop: Add loop-carried edges (self-loop blocks only).
    """
    any_writer: dict[int, int] = {}
    if loop:
        for pos, rd in enumerate(dests):
            if rd != NO_REG and rd != ZERO_REG:
                any_writer[rd] = pos  # latest wins
    last_writer: dict[int, int] = {}
    edges: list[Edge] = []
    for pos, srcs in enumerate(sources):
        for reg in srcs:
            if reg == ZERO_REG:
                continue
            writer = last_writer.get(reg)
            if writer is not None:
                edges.append((writer, pos, reg, False))
            elif loop and reg in any_writer:
                # No writer before this read: the value is the
                # previous iteration's (written at or after pos).
                edges.append((any_writer[reg], pos, reg, True))
        rd = dests[pos]
        if rd != NO_REG and rd != ZERO_REG:
            last_writer[rd] = pos
    return edges


def _intra_preds(edges: list[Edge]) -> dict[int, list[int]]:
    """Each consumer's intra-iteration producers, consumers ascending."""
    preds: dict[int, list[int]] = {}
    for src, dst, _reg, carried in edges:
        if not carried:
            preds.setdefault(dst, []).append(src)
    return preds


def critical_path(
    latencies: Sequence[float], edges: list[Edge]
) -> tuple[float, tuple[int, ...]]:
    """Longest latency chain through one pass of a block.

    Args:
        latencies: Each position's result latency, in cycles.
        edges: The block's :func:`dependency_edges`.

    Returns:
        ``(cycles, chain)`` where *chain* is the block-local positions
        on the path, in program order. Completion-time semantics: the
        chain length is the sum of the producer latencies plus the
        final consumer's own latency.
    """
    if not latencies:
        return 0.0, ()
    # A position with no producer finishes at its own latency; the
    # others, visited in program order (their producers sit earlier),
    # start when their latest producer finishes.
    finish = list(latencies)
    best_pred: list[int | None] = [None] * len(latencies)
    for pos, producers in _intra_preds(edges).items():
        start, chosen = 0.0, None
        for p in producers:
            if finish[p] > start:
                start, chosen = finish[p], p
        finish[pos] = start + latencies[pos]
        best_pred[pos] = chosen
    end = finish.index(max(finish))
    chain: list[int] = []
    node: int | None = end
    while node is not None:
        chain.append(node)
        node = best_pred[node]
    return finish[end], tuple(reversed(chain))


def recurrence(
    latencies: Sequence[float], edges: list[Edge]
) -> tuple[float, tuple[int, ...]]:
    """Longest distance-1 dependency cycle, in cycles per iteration.

    For every loop-carried edge ``u -> v`` the cycle closes through the
    longest intra-iteration path ``v -> u``; its per-iteration cost is
    the sum of every node latency on ``v..u`` inclusive. Loop-carried
    edges with no intra path back (dependence chains spanning several
    iterations) do not form a distance-1 cycle and are ignored.

    Returns:
        ``(cycles, chain)``; ``(0.0, ())`` when no cycle exists.
    """
    carried = [(u, v) for u, v, _reg, c in edges if c]
    if not carried:
        return 0.0, ()
    preds = _intra_preds(edges)
    best, best_chain = 0.0, ()
    for u, v in carried:
        if u == v:
            length = latencies[u]
            chain: tuple[int, ...] = (u,)
        else:
            # acc[w]: max latency sum over intra paths v..w, counting
            # every node strictly before w. Positions are already a
            # topological order (intra edges go forward).
            acc: dict[int, float] = {v: 0.0}
            back: dict[int, int] = {}
            for w in range(v + 1, len(latencies)):
                for p in preds.get(w, ()):
                    if p not in acc:
                        continue
                    cand = acc[p] + latencies[p]
                    if w not in acc or cand > acc[w]:
                        acc[w], back[w] = cand, p
            if u not in acc:
                continue
            length = acc[u] + latencies[u]
            nodes = [u]
            while nodes[-1] in back:
                nodes.append(back[nodes[-1]])
            if nodes[-1] != v:
                nodes.append(v)
            chain = tuple(reversed(nodes))
        if length > best:
            best, best_chain = length, chain
    return best, best_chain


@dataclass
class BlockDepGraph:
    """Dependency structure of one basic block.

    A view over :func:`dependency_edges`, :func:`critical_path` and
    :func:`recurrence`, the functions the analyzer runs on its flat
    per-program tables.

    Attributes:
        insts: The block's instructions, in program order.
        costs: Matching :class:`InstCost` per instruction.
        edges: All register dependency edges.
    """

    insts: tuple[StaticInst, ...]
    costs: tuple[InstCost, ...]
    edges: tuple[DepEdge, ...]

    @classmethod
    def build(
        cls,
        insts: tuple[StaticInst, ...],
        costs: tuple[InstCost, ...],
        loop: bool,
    ) -> BlockDepGraph:
        """Build the graph for a block; *loop* enables carried edges."""
        edges = dependency_edges(
            [inst.sources() for inst in insts],
            [inst.rd for inst in insts],
            loop,
        )
        return cls(
            insts=insts,
            costs=costs,
            edges=tuple(DepEdge(*edge) for edge in edges),
        )

    def _tables(self) -> tuple[list[float], list[Edge]]:
        return (
            [float(cost.latency) for cost in self.costs],
            [(e.src, e.dst, e.reg, e.loop_carried) for e in self.edges],
        )

    def critical_path(self) -> tuple[float, tuple[int, ...]]:
        """See :func:`critical_path`."""
        return critical_path(*self._tables())

    def recurrence(self) -> tuple[float, tuple[int, ...]]:
        """See :func:`recurrence`."""
        return recurrence(*self._tables())
