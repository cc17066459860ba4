"""A contention-aware list scheduler for the one-port model.

Schedules built for the paper's free-overlap model degrade badly when
ports serialize (``benchmarks/bench_contention_and_improvement.py`` re-times
them on ``Machine(one_port=True)``).  This scheduler plans *with* the port
constraints: an MH-style list scheduler whose placement rule evaluates, for
each candidate processor, the true one-port start time — reserving the
sender/receiver ports for every fetch it would trigger — and commits the
reservations of the chosen candidate.

It is a preset of the list-scheduling engine
(:func:`~repro.schedulers.listsched.place_in_order`): MH's priority (the
communication-inclusive level) in the free-list order
:func:`~repro.core.kernels.priority_topo_order_idx` gives, with the
one-port start of :func:`~repro.core.machine.fetch_one_port` as its
processor rule.  Its schedules carry their
:class:`~repro.core.schedule.Transfer` records, which
``schedule.validate(graph, Machine(one_port=True))`` checks.

The benchmark compares it against re-timed contention-blind heuristics:
planning with the real model should recover much of the penalty.
"""

from __future__ import annotations

from ..core.exceptions import GraphError
from ..core.kernels import (
    IndexedPool,
    b_levels_arr,
    graph_index,
    priority_topo_order_idx,
)
from ..core.machine import Machine, fetch_one_port
from ..core.schedule import Schedule, Transfer
from ..core.taskgraph import TaskGraph
from ..schedulers.base import Scheduler
from ..schedulers.listsched import place_in_order

__all__ = ["PortAwareScheduler"]


class PortAwareScheduler(Scheduler):
    """List scheduling that plans around one-port communication."""

    name = "MH1P"
    #: The machine its schedules are valid on.
    machine = Machine(one_port=True)

    def __init__(self, *, max_processors: int | None = None) -> None:
        if max_processors is not None and max_processors < 1:
            raise GraphError("max_processors must be >= 1")
        self.max_processors = max_processors

    def _schedule(self, graph: TaskGraph) -> Schedule:
        gi = graph_index(graph)
        tasks = gi.tasks
        pool = IndexedPool(gi, max_processors=self.max_processors)
        finish, proc_of = pool.finish, pool.proc_of
        send: list[float] = []
        recv: list[float] = []
        transfers: list[Transfer] = []

        def choose(i: int) -> tuple[int, float]:
            """The earliest one-port start, ties to the lower processor;
            its port reservations are committed here."""
            # fetch in deterministic pred order (heaviest message first —
            # long transfers should not wait behind short ones)
            preds = sorted(gi.pred_rows[i], key=lambda jc: (-jc[1], jc[0]))
            n = pool.n_processors
            plans = []
            for p in range(n + 1 if pool.can_grow else n):
                start, recv_free, reservations = fetch_one_port(
                    preds, p, pool.avail(p), recv[p] if p < n else 0.0,
                    send, finish, proc_of, None,
                )
                plans.append((start, p, recv_free, reservations))
            # plans differ by processor, so only (start, proc) is compared
            start, proc, recv_free, reservations = min(plans)
            if proc == n:
                send.append(0.0)
                recv.append(0.0)
            for j, q, begin, end in reservations:
                send[q] = end
                transfers.append(Transfer(tasks[j], tasks[i], begin, end, q, proc))
            recv[proc] = recv_free
            return proc, start

        order = priority_topo_order_idx(gi, b_levels_arr(graph, communication=True))
        schedule = place_in_order(pool, order, choose)
        schedule.transfers = tuple(transfers)
        return schedule
