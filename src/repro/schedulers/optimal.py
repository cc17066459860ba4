"""Brute-force optimal scheduler for tiny graphs (test oracle).

The paper's motivation (section 1) is that multiprocessor scheduling is
NP-hard, so *no baseline exists* against which heuristics can be judged.
For graphs of up to ~8 tasks we can afford one: a branch-and-bound search
in which, at each step, every ready task is tried on every used processor
plus one fresh processor, each time at its earliest start after the
processor's last task.

The result is optimal on the paper's machine, up to the pruning margin.
Every valid schedule has an assignment and per-processor task orders;
timing them semi-actively (each task as early as its processor and inputs
allow) is never worse, and the search reaches every assignment and order
with exactly those start times (DESIGN.md section 2 gives the proof).  A
branch is cut once it cannot end below the incumbent minus 1e-12, so the
result may lie up to 1e-12 above the optimum, never below it.  The test
suite checks it against an exhaustive enumeration of clusterings and uses
it to bound the heuristics' optimality gaps.
"""

from __future__ import annotations

from ..core.exceptions import GraphError
from ..core.schedule import Schedule
from ..core.taskgraph import Task, TaskGraph
from .base import Scheduler, register

#: Beyond this many tasks the search space explodes; refuse loudly.
MAX_TASKS = 10


@register
class OptimalScheduler(Scheduler):
    """Exhaustive branch-and-bound over every assignment and processor
    order, each timed semi-actively."""

    name = "OPT"

    def __init__(self, *, max_tasks: int = MAX_TASKS) -> None:
        self.max_tasks = max_tasks

    def _schedule(self, graph: TaskGraph) -> Schedule:
        if graph.n_tasks > self.max_tasks:
            raise GraphError(
                f"OPT is exponential; refusing {graph.n_tasks} tasks "
                f"(max {self.max_tasks})"
            )
        tasks = graph.topological_order()
        n = len(tasks)
        index = {t: i for i, t in enumerate(tasks)}
        preds: list[list[tuple[int, float]]] = [
            [(index[p], c) for p, c in graph.in_edges(t).items()] for t in tasks
        ]
        succs: list[list[int]] = [[index[s] for s in graph.successors(t)] for t in tasks]
        weights = [graph.weight(t) for t in tasks]
        indeg = [graph.in_degree(t) for t in tasks]

        best_makespan = [graph.serial_time()]  # serial schedule is always feasible
        best_assign: list[list[tuple[int, float]]] = [
            [(0, s) for s in _prefix_sums(weights, tasks, graph)]
        ]

        proc_of = [-1] * n
        start_of = [0.0] * n
        finish_of = [0.0] * n

        def dfs(scheduled: int, ready: list[int], proc_free: list[float], span: float) -> None:
            if span >= best_makespan[0] - 1e-12:
                return  # bound: cannot improve
            if scheduled == n:
                best_makespan[0] = span
                best_assign[0] = [(proc_of[i], start_of[i]) for i in range(n)]
                return
            for t in list(ready):
                n_procs = len(proc_free)
                for p in range(n_procs + 1):
                    avail = proc_free[p] if p < n_procs else 0.0
                    start = avail
                    for q, c in preds[t]:
                        arrival = finish_of[q] + (c if proc_of[q] != p else 0.0)
                        if arrival > start:
                            start = arrival
                    finish = start + weights[t]
                    if finish >= best_makespan[0] - 1e-12:
                        continue
                    # apply
                    proc_of[t], start_of[t], finish_of[t] = p, start, finish
                    if p < n_procs:
                        saved = proc_free[p]
                        proc_free[p] = finish
                    else:
                        proc_free.append(finish)
                    newly = [s for s in succs[t] if _all_preds_done(s, preds, proc_of)]
                    ready.remove(t)
                    ready.extend(newly)
                    dfs(scheduled + 1, ready, proc_free, max(span, finish))
                    # undo (recursion may have reordered `ready`, so remove
                    # the released successors by value)
                    for s in newly:
                        ready.remove(s)
                    ready.append(t)
                    if p < n_procs:
                        proc_free[p] = saved
                    else:
                        proc_free.pop()
                    proc_of[t] = -1

        initial_ready = [i for i in range(n) if indeg[i] == 0]
        dfs(0, initial_ready, [], 0.0)

        schedule = Schedule()
        for i, (p, s) in enumerate(best_assign[0]):
            schedule.place(tasks[i], p, s, weights[i])
        return schedule


def _all_preds_done(t: int, preds: list[list[tuple[int, float]]], proc_of: list[int]) -> bool:
    return all(proc_of[q] != -1 for q, _ in preds[t])


def _prefix_sums(weights: list[float], tasks: list[Task], graph: TaskGraph) -> list[float]:
    """Serial-schedule start times matching the topological task order."""
    starts = []
    acc = 0.0
    for w in weights:
        starts.append(acc)
        acc += w
    return starts
