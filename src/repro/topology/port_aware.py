"""A contention-aware list scheduler for the one-port model.

:mod:`repro.topology.contention` showed that schedules built for the
paper's free-overlap model degrade badly when ports serialize.  This
scheduler plans *with* the port constraints: an MH-style list scheduler
whose placement rule evaluates, for each candidate processor, the true
one-port start time — reserving the sender/receiver ports for every fetch
it would trigger — and commits the reservations of the chosen candidate.

It is a preset of the list-scheduling engine
(:func:`~repro.schedulers.listsched.place_in_order`): MH's priority (the
communication-inclusive level) in the free-list order
:func:`~repro.core.kernels.priority_topo_order_idx` gives, with the
one-port start as its processor rule.

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
from ..core.schedule import Schedule
from ..core.taskgraph import Task, TaskGraph
from ..schedulers.listsched import place_in_order

__all__ = ["PortAwareScheduler"]


class PortAwareScheduler:
    """List scheduling that plans around one-port communication."""

    def __init__(self, *, max_processors: int | None = None) -> None:
        if max_processors is not None and max_processors < 1:
            raise GraphError("max_processors must be >= 1")
        self.max_processors = max_processors
        self.name = "MH1P"
        #: Transfers committed by the last schedule() call.
        self.last_transfers: list[tuple[Task, Task, float, float]] = []

    def schedule(self, graph: TaskGraph) -> Schedule:
        """Schedule under the one-port model (see module docstring)."""
        if graph.n_tasks == 0:
            raise GraphError("MH1P: cannot schedule an empty graph")
        graph.validate()
        gi = graph_index(graph)
        tasks = gi.tasks
        pool = IndexedPool(gi, max_processors=self.max_processors)
        finish, proc_of = pool.finish, pool.proc_of
        send_free: list[float] = []
        recv_free: list[float] = []
        transfers = self.last_transfers = []

        def plan(preds: list[tuple[int, float]], proc: int):
            """(start, proc, receive cursor, port reservations) on ``proc``."""
            fresh = proc == pool.n_processors
            start = pool.avail(proc)
            recv_cursor = 0.0 if fresh else recv_free[proc]
            reservations = []  # (src_proc, xfer_start, xfer_finish, pred)
            send_cursor: dict[int, float] = {}  # local view of send ports
            for j, c in preds:
                q = proc_of[j]
                if q == proc or c == 0.0:
                    arrival = finish[j]
                else:
                    s_free = send_cursor.get(q, send_free[q])
                    xfer = max(finish[j], s_free, recv_cursor)
                    arrival = xfer + c
                    send_cursor[q] = arrival
                    recv_cursor = arrival
                    reservations.append((q, xfer, arrival, j))
                if arrival > start:
                    start = arrival
            return start, proc, recv_cursor, reservations

        def choose(i: int) -> tuple[int, float]:
            """The earliest one-port start, ties to the lower processor;
            its port reservations are committed here."""
            # fetch in deterministic pred order (heaviest message first —
            # long transfers should not wait behind short ones)
            preds = sorted(gi.pred_rows[i], key=lambda jc: (-jc[1], jc[0]))
            n = pool.n_processors
            # plans differ by processor, so only (start, proc) is compared
            start, proc, recv_cursor, reservations = min(
                plan(preds, p) for p in range(n + 1 if pool.can_grow else n)
            )
            if proc == n:
                send_free.append(0.0)
                recv_free.append(0.0)
            for q, xfer, arrival, j in reservations:
                send_free[q] = max(send_free[q], arrival)
                transfers.append((tasks[j], tasks[i], xfer, arrival))
            recv_free[proc] = max(recv_free[proc], recv_cursor)
            return proc, start

        order = priority_topo_order_idx(gi, b_levels_arr(graph, communication=True))
        return place_in_order(pool, order, choose)
