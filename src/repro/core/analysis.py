"""Path analysis on weighted task graphs.

These are the shared quantities the heuristics are built from:

* **t-level** (top level): longest path length from any source to a task,
  *excluding* the task's own execution time.  With communication, edge weights
  are counted on the path; without, only node weights.
* **b-level** (bottom level): longest path length from the start of a task to
  any sink, *including* the task's own execution time.  The paper (appendix)
  calls the communication-inclusive b-level simply ``level`` ("the length of
  the longest path from the start of n_x to an exit node"); the
  communication-free b-level is the classical Hu level.
* **ALAP time**: latest start time that does not stretch the critical path,
  used by MCP.
* **critical path**: a path realizing ``max(t-level + b-level)``.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

from .exceptions import GraphError
from .kernels import b_levels_arr, critical_path_idx, graph_index, t_levels_arr
from .taskgraph import Task, TaskGraph

__all__ = [
    "t_levels",
    "b_levels",
    "hu_levels",
    "alap_times",
    "asap_times",
    "critical_path",
    "critical_path_length",
    "dominant_path_length",
    "t_levels_view",
    "b_levels_view",
    "hu_levels_view",
    "alap_times_view",
    "GraphAnalysis",
]

# ----------------------------------------------------------------------
# cached kernels
#
# The public functions below memoize their results on the graph itself
# (:meth:`TaskGraph.cached`), keyed by (quantity, communication flag), so a
# suite run that schedules one graph with five heuristics computes each
# traversal once instead of once per heuristic.  The traversals run on the
# compiled index (:mod:`repro.core.kernels`); the dicts are keyed in the
# traversal's order, topological for t-levels and reverse topological for
# b-levels.  The memo table is dropped by any graph mutation.  ``_raw``
# helpers return the *shared* cached dict:
# internal read-only consumers (and :class:`GraphAnalysis`) use them
# directly, while the public functions hand out fresh copies so existing
# callers may keep mutating their results.
# ----------------------------------------------------------------------


def _t_levels_raw(graph: TaskGraph, communication: bool) -> dict[Task, float]:
    def compute() -> dict[Task, float]:
        arr = t_levels_arr(graph, communication=communication)
        gi = graph_index(graph)
        tasks = gi.tasks
        return {tasks[i]: arr[i] for i in gi.topo_list}

    return graph.cached(("t_levels", communication), compute)


def _b_levels_raw(graph: TaskGraph, communication: bool) -> dict[Task, float]:
    def compute() -> dict[Task, float]:
        arr = b_levels_arr(graph, communication=communication)
        gi = graph_index(graph)
        tasks = gi.tasks
        return {tasks[i]: arr[i] for i in reversed(gi.topo_list)}

    return graph.cached(("b_levels", communication), compute)


def _alap_times_raw(graph: TaskGraph, communication: bool) -> dict[Task, float]:
    """Shared memoized ALAP dict (critical-path deadline); treat as read-only."""

    def compute() -> dict[Task, float]:
        bl = _b_levels_raw(graph, communication)
        cp = max(bl.values(), default=0.0)
        return {t: cp - bl[t] for t in graph.tasks()}

    return graph.cached(("alap_times", communication), compute)


def t_levels(graph: TaskGraph, *, communication: bool = True) -> dict[Task, float]:
    """Longest source-to-task path length excluding the task's own weight.

    ``communication=True`` counts edge weights along paths (the model where
    every edge crosses processors); ``False`` counts node weights only.
    The traversal is memoized per graph version; each call returns a fresh
    dict.
    """
    return dict(_t_levels_raw(graph, communication))


def b_levels(graph: TaskGraph, *, communication: bool = True) -> dict[Task, float]:
    """Longest task-to-sink path length including the task's own weight.

    Memoized per graph version; each call returns a fresh dict.
    """
    return dict(_b_levels_raw(graph, communication))


def hu_levels(graph: TaskGraph) -> dict[Task, float]:
    """Classical Hu levels: communication-free b-levels (appendix A.4)."""
    return b_levels(graph, communication=False)


def critical_path_length(graph: TaskGraph, *, communication: bool = True) -> float:
    """Weight of the heaviest source-to-sink path (0 for an empty graph)."""
    bl = _b_levels_raw(graph, communication)
    return max((bl[s] for s in graph.sources()), default=0.0)


def dominant_path_length(graph: TaskGraph) -> float:
    """Alias used in the DSC literature: communication-inclusive CP length."""
    return critical_path_length(graph, communication=True)


def critical_path(graph: TaskGraph, *, communication: bool = True) -> list[Task]:
    """One maximal-weight source-to-sink path, in execution order.

    Ties are broken deterministically by following the first maximal
    successor in iteration order.
    """
    tasks = graph_index(graph).tasks
    return [tasks[i] for i in critical_path_idx(graph, communication=communication)]


def asap_times(graph: TaskGraph, *, communication: bool = True) -> dict[Task, float]:
    """Earliest start times assuming unlimited processors.

    Identical to :func:`t_levels`; provided under the scheduling-literature
    name for readability at call sites.
    """
    return t_levels(graph, communication=communication)


def alap_times(
    graph: TaskGraph,
    *,
    communication: bool = True,
    deadline: float | None = None,
) -> dict[Task, float]:
    """Latest start times that keep every path within ``deadline``.

    ``deadline`` defaults to the critical-path length, which makes the ALAP
    time of every critical task equal to its ASAP time.  MCP (appendix A.2)
    computes these with all communication costs assumed incurred.
    """
    if deadline is None:
        return dict(_alap_times_raw(graph, communication))
    bl = _b_levels_raw(graph, communication)
    cp = max(bl.values(), default=0.0)
    if deadline < cp:
        raise GraphError(f"deadline {deadline} below critical path length {cp}")
    return {t: deadline - bl[t] for t in graph.tasks()}


def t_levels_view(
    graph: TaskGraph, *, communication: bool = True
) -> Mapping[Task, float]:
    """Read-only view of the memoized t-levels — no per-call copy.

    Hot-path variant of :func:`t_levels` for callers that only read the
    mapping; the view is backed by the graph's memo table and must not be
    mutated or held across graph mutations.
    """
    return MappingProxyType(_t_levels_raw(graph, communication))


def b_levels_view(
    graph: TaskGraph, *, communication: bool = True
) -> Mapping[Task, float]:
    """Read-only view of the memoized b-levels — no per-call copy."""
    return MappingProxyType(_b_levels_raw(graph, communication))


def hu_levels_view(graph: TaskGraph) -> Mapping[Task, float]:
    """Read-only view of the memoized Hu levels (communication-free b-levels)."""
    return b_levels_view(graph, communication=False)


def alap_times_view(
    graph: TaskGraph, *, communication: bool = True
) -> Mapping[Task, float]:
    """Read-only view of the memoized ALAP times (critical-path deadline)."""
    return MappingProxyType(_alap_times_raw(graph, communication))


class GraphAnalysis:
    """Zero-copy memoized path analyses of one graph.

    Wraps a :class:`TaskGraph` and serves ``t_levels`` / ``b_levels`` /
    ``alap_times`` / the topological order as **read-only mappings/tuples**
    backed by the graph's own memo table — no per-call copies, unlike the
    module-level functions.  The wrapper stamps the graph's
    :attr:`~TaskGraph.version` at construction and refuses to serve after a
    mutation (use :meth:`refresh` or build a new instance), so a scheduler
    holding one across a run can never read stale levels.
    """

    __slots__ = ("graph", "_stamp")

    def __init__(self, graph: TaskGraph) -> None:
        self.graph = graph
        self._stamp = graph.version

    def _check(self) -> TaskGraph:
        if self.graph.version != self._stamp:
            raise GraphError(
                "GraphAnalysis is stale: the graph was mutated "
                f"(version {self.graph.version} != stamped {self._stamp}); "
                "call refresh() after mutating"
            )
        return self.graph

    def refresh(self) -> "GraphAnalysis":
        """Re-stamp after a deliberate mutation; memos rebuild lazily."""
        self._stamp = self.graph.version
        return self

    @property
    def stale(self) -> bool:
        """Whether the underlying graph has mutated since stamping."""
        return self.graph.version != self._stamp

    def topological_order(self) -> tuple[Task, ...]:
        graph = self._check()
        return graph.cached(
            "topological_order_t", lambda: tuple(graph.topological_order())
        )

    def t_levels(self, *, communication: bool = True) -> Mapping[Task, float]:
        return MappingProxyType(_t_levels_raw(self._check(), communication))

    def b_levels(self, *, communication: bool = True) -> Mapping[Task, float]:
        return MappingProxyType(_b_levels_raw(self._check(), communication))

    def hu_levels(self) -> Mapping[Task, float]:
        return self.b_levels(communication=False)

    def critical_path_length(self, *, communication: bool = True) -> float:
        return critical_path_length(self._check(), communication=communication)

    def alap_times(self, *, communication: bool = True) -> Mapping[Task, float]:
        return MappingProxyType(_alap_times_raw(self._check(), communication))

    def __repr__(self) -> str:
        state = "stale" if self.stale else "fresh"
        return f"GraphAnalysis({self.graph!r}, {state})"


def validate_levels(graph: TaskGraph, tl: Mapping[Task, float], bl: Mapping[Task, float]) -> None:
    """Debug helper: check the defining recurrences of t/b-levels (with comm)."""
    for t in graph.tasks():
        expect_t = max(
            (tl[p] + graph.weight(p) + c for p, c in graph.in_edges(t).items()),
            default=0.0,
        )
        if abs(expect_t - tl[t]) > 1e-9:
            raise GraphError(f"t-level recurrence violated at {t!r}")
        expect_b = graph.weight(t) + max(
            (bl[s] + c for s, c in graph.out_edges(t).items()), default=0.0
        )
        if abs(expect_b - bl[t]) > 1e-9:
            raise GraphError(f"b-level recurrence violated at {t!r}")
