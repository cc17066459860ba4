"""LC — Linear Clustering (Kim & Browne, 1988).

An extension comparator beyond the paper's five heuristics (the paper
explicitly invites adding heuristics that share its execution model,
section 5.2).  LC repeatedly extracts the current communication-inclusive
critical path of the *unexamined* subgraph and makes it one cluster —
every cluster is a chain, hence "linear" clustering.

The per-cluster orders are subsequences of directed paths, so they always
compose into a valid schedule under the shared simulator.

Everything runs on the graph's one compiled index, with a mask of the
tasks already clustered standing in for the shrinking subgraph.  Each
round recomputes the b-levels of the remaining tasks in reverse
``topo_list`` with the float operations of the kernels' b-level sweep,
and takes its path as :func:`~repro.core.kernels.critical_path_idx` does:
the first maximal remaining source in id order, then the first maximal
remaining successor in adjacency order.  The induced subgraph on the
remaining tasks keeps the ids' relative order and each adjacency row's
order, and a b-level is a maximum, so the clusters are the ones a copy of
the graph shrunk path by path would give.
"""

from __future__ import annotations

from ..core.kernels import graph_index, simulate_ordered_idx
from ..core.schedule import Schedule
from ..core.simulator import _count_run
from ..core.taskgraph import TaskGraph
from .base import Scheduler, register


@register
class LCScheduler(Scheduler):
    """Iterated critical-path extraction into linear clusters."""

    name = "LC"

    def _schedule(self, graph: TaskGraph) -> Schedule:
        gi = graph_index(graph)
        n = gi.n
        w = gi.weights
        rows = gi.succ_rows
        bottom_up = gi.topo_list[::-1]
        removed = [False] * n
        # remaining predecessors: a remaining task with none is a source
        waiting = list(gi.in_degree)
        bl = [0.0] * n
        clusters: list[list[int]] = []
        left = n
        while left:
            for t in bottom_up:
                if removed[t]:
                    continue
                best = 0.0
                for j, c in rows[t]:
                    if not removed[j]:
                        cand = bl[j] + c
                        if cand > best:
                            best = cand
                bl[t] = best + w[t]
            node, best = -1, -1.0
            for s in range(n):
                if not waiting[s] and not removed[s] and bl[s] > best:
                    node, best = s, bl[s]
            path = []
            while node >= 0:
                path.append(node)
                removed[node] = True
                nxt, best = -1, -1.0
                for j, c in rows[node]:
                    waiting[j] -= 1
                    if not removed[j]:
                        val = bl[j] + c
                        if val > best:
                            nxt, best = j, val
                node = nxt
            clusters.append(path)
            left -= len(path)
        # clusters partition the task set by construction
        schedule, events = simulate_ordered_idx(gi, clusters)
        _count_run(events)
        return schedule
