"""DSC — Dominant Sequence Clustering (Yang & Gerasoulis).

Appendix A.1 / Figures 7–8 of the paper.  DSC is an edge-zeroing clustering
algorithm: tasks are examined in priority order
``priority(n) = startbound(n) + level(n)`` (t-level + b-level — maximal on
the current dominant sequence), and each *free* task either

* merges into the predecessor cluster that minimizes its start time —
  "zeroing" the edges from that cluster — when that does not increase its
  start over the unmerged lower bound (**CT1**), and, when a partial-free
  task outranks it, when the merge does not delay that task either
  (**CT2**); or
* starts a fresh cluster at its lower-bound start time.

Definitions used below (paper's timing values):

* ``startbound(n)`` — earliest start on an independent cluster:
  ``max over scheduled preds p of finish(p) + c(p, n)``;
* ``ST(c, n)`` — start when appended to cluster ``c``:
  ``max(avail(c), max over scheduled preds p of finish(p) + c(p, n) * [cluster(p) != c])``;
* ``level(n)`` — communication-inclusive b-level, computed once on the
  input graph (as in the DSC paper).

Because only free tasks are ever scheduled, cluster orders follow a
topological order and the recorded start times equal the shared simulator's
timing rule, so the schedule is emitted directly.

The free and partial-free lists are heaps and ``ST(c, n)`` for every
predecessor cluster comes from one pass over ``n``'s in-edges, so a run
costs O((v + e) log v), the bound Yang and Gerasoulis give, with the
placements of the definition's full rescans (DESIGN.md section 3).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from ..core.kernels import arrival_bounds, b_levels_arr, graph_index
from ..core.schedule import Schedule, _LazySchedule
from ..core.taskgraph import Task, TaskGraph
from ..obs.metrics import get_registry
from .base import Scheduler, register


@register
class DSCScheduler(Scheduler):
    """Dominant sequence clustering on an unbounded processor pool."""

    name = "DSC"

    def __init__(self, *, use_ct2: bool = True) -> None:
        #: CT2 guards partial-free tasks (DSC-II).  Exposed for ablation.
        self.use_ct2 = use_ct2

    def _schedule(self, graph: TaskGraph) -> Schedule:
        """DSC on the compiled index; ties break on the task id.

        Both selections come from heaps keyed ``(-(startbound + level),
        id)``, so the heap top is the task the definition's full scan picks:
        the highest priority, then the lowest id.  Startbounds are
        maintained incrementally: when a task is scheduled, each successor's
        bound takes ``max(bound, finish + c)``.  Max is order-independent,
        so this is bit for bit the definition's max over the scheduled
        predecessors.

        * ``free`` gets each task once, when its last predecessor is
          scheduled: its startbound is final from then on.
        * ``partial`` holds the unscheduled tasks that are not free and gets
          a new entry whenever a task's startbound grows.  A key only grows,
          so a task's newest entry sits above its older ones, and an older
          entry can reach the top only after the task has become free; such
          entries are dropped when they surface.

        Each edge pushes at most one entry, so selection costs
        O((v + e) log v) in all.
        """
        gi = graph_index(graph)
        n = gi.n
        level = b_levels_arr(graph, communication=True)
        weights = gi.weights
        pred_rows = gi.pred_rows
        succ_rows = gi.succ_rows
        indeg = gi.in_degree
        tasks = gi.tasks
        use_ct2 = self.use_ct2

        finish = [0.0] * n
        cluster_of = [-1] * n
        cluster_avail: list[float] = []
        rows: list[tuple[Task, int, float, float]] = []
        n_sched_preds = [0] * n
        startbound = [0.0] * n  # max over *scheduled* preds of finish + c
        free = [(-level[t], t) for t in range(n) if not indeg[t]]
        partial = [(-level[t], t) for t in range(n) if indeg[t]]
        heapify(free)
        heapify(partial)

        n_zeroings = 0
        n_fresh = 0
        n_ct2_rejections = 0

        for _ in range(n):
            nx = heappop(free)[1]
            sb = startbound[nx]
            target = -1
            preds = pred_rows[nx]
            if preds:
                st, best_c = _best_parent_cluster(
                    preds, finish, cluster_of, cluster_avail
                )
                if st <= sb + 1e-12:  # CT1
                    ny = -1  # the top partial-free task
                    while partial:
                        t = partial[0][1]
                        if n_sched_preds[t] < indeg[t]:
                            ny = t
                            break
                        heappop(partial)  # t has become free
                    if ny < 0 or sb + level[nx] >= startbound[ny] + level[ny]:
                        target = best_c
                    elif not use_ct2 or _ct2_ok(
                        pred_rows[ny], best_c, cluster_of,
                        st + weights[nx], startbound[ny],
                    ):
                        target = best_c
                    else:
                        n_ct2_rejections += 1

            if target < 0:
                # fresh cluster at the lower-bound start time
                target = len(cluster_avail)
                cluster_avail.append(0.0)
                start = sb
                n_fresh += 1
            else:
                start = st
                n_zeroings += 1

            f = start + weights[nx]
            rows.append((tasks[nx], target, start, f))
            finish[nx] = f
            cluster_avail[target] = f
            cluster_of[nx] = target
            for s, c in succ_rows[nx]:
                k = n_sched_preds[s] + 1
                n_sched_preds[s] = k
                a = f + c
                if a > startbound[s]:
                    startbound[s] = a
                    if k < indeg[s]:
                        heappush(partial, (-(a + level[s]), s))
                if k == indeg[s]:
                    heappush(free, (-(startbound[s] + level[s]), s))

        registry = get_registry()
        registry.inc("dsc.edge_zeroings", n_zeroings)
        registry.inc("dsc.fresh_clusters", n_fresh)
        registry.inc("dsc.ct2_rejections", n_ct2_rejections)
        return _LazySchedule(rows)


def _best_parent_cluster(
    preds: list[tuple[int, float]],
    finish: list[float],
    cluster_of: list[int],
    cluster_avail: list[float],
) -> tuple[float, int]:
    """``(ST(c, n), c)`` for the predecessor cluster ``c`` minimizing it.

    One pass over ``n``'s in-edges (all scheduled) gives, per cluster, the
    latest predecessor finish and, across clusters, the top and
    second-best message arrival (:func:`arrival_bounds`).  On cluster ``c``
    the predecessors placed there pay no message and every other one pays
    its own, so ``ST(c, n)`` is the max of ``avail(c)``, ``c``'s latest
    finish and the best arrival from any other cluster: a max over the
    same terms as the definition's walk, hence bit-identical.  Ties keep
    the lowest cluster id.
    """
    local, top_c, top, second = arrival_bounds(preds, finish, cluster_of)
    best_c = -1
    best = 0.0
    for c, f in local.items():
        st = cluster_avail[c]
        if f > st:
            st = f
        cross = second if c == top_c else top
        if cross > st:
            st = cross
        if best_c < 0 or st < best or (st == best and c < best_c):
            best_c, best = c, st
    return best, best_c


def _ct2_ok(
    ny_preds: list[tuple[int, float]],
    cluster: int,
    cluster_of: list[int],
    finish_nx: float,
    startbound_ny: float,
) -> bool:
    """CT2: merging must not delay the higher-priority partial-free task.

    If ``cluster`` holds a scheduled predecessor of ``ny``, occupying it
    until ``finish_nx`` must not push ``ny``'s start there past its
    independent-cluster lower bound (appendix A.1's "guarantees that the
    start time of partial free nodes is never increased").  An unscheduled
    predecessor has cluster -1, which matches no cluster.
    """
    if not any(cluster_of[p] == cluster for p, _ in ny_preds):
        return True
    return finish_nx <= startbound_ny + 1e-12
