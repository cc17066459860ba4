"""One list-scheduling engine: a task order plus a placement rule.

A list scheduler places one task at a time on the processor its placement
rule picks.  The eleven list heuristics of this package are presets of the
two loops below; they differ only in their components (priority, order,
processor rule, insertion, machine), the axes along which Coleman et al.'s
parameterized scheduler splits list scheduling.  DESIGN.md section 3
tabulates them.

* :func:`place_in_order` serves the static-priority schedulers (MCP, MH,
  HU, HLFET, the topology MH, the one-port MH1P, and HEFT, HMH and CPOP).
  Their task order never depends on where earlier tasks went, so it is
  computed before any placement: a sorted list (MCP, HEFT, HMH), the
  free-list order of :func:`~repro.core.kernels.priority_topo_order_idx`
  (HU, HLFET, MH1P, CPOP) or MH's :func:`wave_order` (MH and the topology
  MH).
* :func:`place_greedily` serves the dynamic ones (ETF, DLS): at every
  step it places the ready (task, processor) pair its preset ranks first.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from ..core.kernels import GraphIndex, IndexedPool, arrival_bounds
from ..core.schedule import Schedule

__all__ = ["place_in_order", "place_greedily", "wave_order"]


def place_in_order(
    pool: IndexedPool, order: Iterable[int], choose: Callable[[int], tuple]
) -> Schedule:
    """Place the tasks of ``order`` one by one, each where ``choose(i)``
    says: a ``(processor, start)`` given the placements so far."""
    place = pool.place
    for i in order:
        proc, start = choose(i)
        place(i, proc, start)
    return pool.schedule


def place_greedily(pool: IndexedPool, pick: Callable[[dict], tuple]) -> Schedule:
    """Place the ready (task, processor) pair ``pick`` ranks first, until
    no task is left.

    A task is ready once all its predecessors are placed.  Placed tasks
    never move, so its :func:`~repro.core.kernels.arrival_bounds` are
    computed then, once.  ``pick(ready)`` gets every ready task mapped to
    its bounds and returns the ``(task, processor, start)`` with the
    smallest key of its preset.
    """
    gi = pool.gi
    pred_rows, succ_rows = gi.pred_rows, gi.succ_rows
    finish, proc_of = pool.finish, pool.proc_of
    waiting = list(gi.in_degree)
    ready = {i: arrival_bounds(pred_rows[i], finish, proc_of) for i in gi.source_ids}
    while ready:
        i, proc, start = pick(ready)
        pool.place(i, proc, start)
        del ready[i]
        for j, _ in succ_rows[i]:
            waiting[j] -= 1
            if not waiting[j]:
                ready[j] = arrival_bounds(pred_rows[j], finish, proc_of)
    return pool.schedule


def wave_order(gi: GraphIndex, level: list[float]) -> list[int]:
    """Task ids by ``(depth, -level, id)``: MH's placement order.

    The depth of a task is the number of edges on its longest path from a
    source.  MH's free list is drained before its event list releases any
    successor, so it places the tasks in waves, wave k being the tasks of
    depth k, each wave in its free list's (-level, id) order.  DESIGN.md
    section 3 gives the proof.
    """
    depth = [0] * gi.n
    succ_rows = gi.succ_rows
    for i in gi.topo_list:
        d = depth[i] + 1
        for j, _ in succ_rows[i]:
            if depth[j] < d:
                depth[j] = d
    return sorted(range(gi.n), key=lambda i: (depth[i], -level[i], i))
