"""Weighted task graphs (program dependence graphs).

The paper's input model (section 2) is a directed acyclic graph in which each
vertex is a task carrying a processing-time weight and each edge carries the
communication cost paid when its endpoints run on *different* processors.

:class:`TaskGraph` is a small, dependency-free adjacency-map structure tuned
for the access patterns of the schedulers (predecessor/successor sweeps in
topological order).  Conversion to and from :mod:`networkx` is provided for
interoperability; networkx is imported only when :meth:`TaskGraph.to_networkx`
runs, so processes that never convert do not pay for loading it.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping
from types import MappingProxyType
from typing import TYPE_CHECKING, Any

from .exceptions import CycleError, GraphError

if TYPE_CHECKING:
    import networkx as nx

Task = Hashable
Edge = tuple[Task, Task]


class TaskGraph:
    """A weighted DAG of tasks.

    Node weights are task execution times; edge weights are communication
    costs.  Weights must be non-negative finite numbers; execution weights are
    normally positive (zero-weight pseudo tasks are permitted because some
    heuristics, e.g. MH, insert a zero-cost exit node).

    The class does not *enforce* acyclicity on every mutation (that would make
    construction quadratic); call :meth:`validate` or :meth:`topological_order`
    to check.  All library entry points validate their inputs.

    Derived-value caching: expensive read-only analyses are memoized per
    graph in two tables, split by what a value reads — see DESIGN.md
    "Caching and invalidation".

    * The **version table** (:meth:`cached`) holds every value that reads a
      weight: validation, the compiled index, the levels and the path
      analyses of :mod:`repro.core.analysis`.  Every mutation
      (:meth:`add_task`, :meth:`add_edge`, :meth:`remove_edge`,
      :meth:`remove_task`) bumps :attr:`version` and drops it.
    * The **shape table** (:meth:`shape_cached`) holds values computed from
      the tasks, the edges and their insertion order alone: the topological
      order and the clan parse.  A weight-only edit (re-adding an existing
      task or edge) keeps it, and :meth:`copy` shares it.  A structural
      edit (a new task or edge, a removed edge or task) gives the graph a
      new, empty shape table; the old one is never cleared in place, since
      copies taken before the edit may still use it.

    Either way a stale value can never be observed.
    """

    __slots__ = (
        "_succ",
        "_pred",
        "_weight",
        "_version",
        "_version_memo",
        "_shape_memo",
        "_cache_lock",
    )

    def __init__(self) -> None:
        self._succ: dict[Task, dict[Task, float]] = {}
        self._pred: dict[Task, dict[Task, float]] = {}
        self._weight: dict[Task, float] = {}
        #: Mutation counter; bumped (and the version table dropped) on any change.
        self._version: int = 0
        #: Version table: values that read a weight; keys are owned by the
        #: computing code.
        self._version_memo: dict[Any, Any] = {}
        #: Shape table: values that read only tasks, edges and their order.
        #: Shared by copies, so a structural edit replaces it, never clears it.
        self._shape_memo: dict[Any, Any] = {}
        #: Serializes memo misses so concurrent readers never compute twice.
        self._cache_lock = threading.RLock()

    # ------------------------------------------------------------------
    # derived-value cache
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic mutation counter (bumped by every mutation, weight-only
        edits included).

        Equal versions on the same object guarantee identical structure and
        weights, so externally-held analyses
        (:class:`repro.core.analysis.GraphAnalysis`) can stamp-check their
        memos.
        """
        return self._version

    def _reweighted(self) -> None:
        """A weight-only edit: a new version of the same shape."""
        self._version += 1
        if self._version_memo:
            self._version_memo.clear()

    def _restructured(self) -> None:
        """A structural edit: a new version and a new shape.

        The shape table is replaced, not cleared: a copy may still share the
        old one, and clearing it would let that copy's later values leak
        into this graph.
        """
        self._reweighted()
        self._shape_memo = {}

    def cached(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the memoized value for ``key``, computing it on first use.

        Memoized in the version table, which any mutation drops wholesale:
        use it for every value that reads a weight.  Values are returned by
        reference: callers must treat them as immutable (the analysis
        helpers copy before handing values out to user code).

        Thread safety: the hit path is a lock-free dict read; misses are
        serialized under a per-graph reentrant lock (reentrant because
        ``compute`` may itself call :meth:`cached` for a sub-analysis), so
        concurrent readers of an unmutated graph never compute the same
        (key, version) twice — the service's worker threads and the
        :class:`~repro.core.kernels.GraphIndex` compile cache rely on this.
        Mutating a graph while another thread reads it remains undefined, as
        for any mutable container.
        """
        try:
            return self._version_memo[key]
        except KeyError:
            pass
        with self._cache_lock:
            try:
                return self._version_memo[key]
            except KeyError:
                value = self._version_memo[key] = compute()
                return value

    def shape_cached(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the shape-memoized value for ``key``, computing it on
        first use.

        Memoized in the shape table, for values that are pure functions of
        the tasks, the edges and their insertion order: ``compute`` must
        read no weight.  The value survives weight-only edits and is shared
        with every :meth:`copy` of the same shape, so callers must treat it
        as immutable.  Misses are serialized under this graph's lock, as in
        :meth:`cached`; a copy computing the same key concurrently under
        its own lock may compute it twice, but the first value stored is
        the one every sharer gets.
        """
        table = self._shape_memo
        try:
            return table[key]
        except KeyError:
            pass
        with self._cache_lock:
            try:
                return table[key]
            except KeyError:
                return table.setdefault(key, compute())

    def has_cached(self, key: Hashable) -> bool:
        """Whether ``key`` is currently memoized in either table (lock-free
        probe).

        Lets batch producers (:func:`repro.core.batch.batch_analyze`) skip
        graphs whose analyses are already primed without recomputing them.
        """
        return key in self._version_memo or key in self._shape_memo

    def uncache(self, key: Hashable) -> None:
        """Drop one memoized entry from either table (no-op if absent).

        Eviction hook for externally size-bounded caches — e.g. the service
        evicting a compiled :class:`~repro.core.kernels.GraphIndex` or a
        clan parse for a graph object that stays alive.  A shape entry is
        dropped for every copy sharing the table; they recompute it on
        their next read.
        """
        with self._cache_lock:
            self._version_memo.pop(key, None)
            self._shape_memo.pop(key, None)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_task(self, task: Task, weight: float = 1.0) -> None:
        """Add a task with the given execution weight.

        Re-adding an existing task updates its weight in place: a
        weight-only edit, which keeps the shape table.
        """
        _check_weight(weight, "task weight")
        if task in self._weight:
            self._weight[task] = float(weight)
            self._reweighted()
            return
        self._succ[task] = {}
        self._pred[task] = {}
        self._weight[task] = float(weight)
        self._restructured()

    def add_edge(self, u: Task, v: Task, weight: float = 0.0) -> None:
        """Add a dependence edge ``u -> v`` with the given communication cost.

        Both endpoints must already exist.  Re-adding an edge updates its
        weight in place: a weight-only edit, which keeps the shape table.
        Self loops are rejected.
        """
        if u == v:
            raise GraphError(f"self loop on task {u!r}")
        if u not in self._weight:
            raise GraphError(f"unknown task {u!r}")
        if v not in self._weight:
            raise GraphError(f"unknown task {v!r}")
        _check_weight(weight, "edge weight")
        row = self._succ[u]
        new = v not in row
        row[v] = float(weight)
        self._pred[v][u] = float(weight)
        if new:
            self._restructured()
        else:
            self._reweighted()

    def remove_edge(self, u: Task, v: Task) -> None:
        """Remove the edge ``u -> v``; error if absent."""
        try:
            del self._succ[u][v]
            del self._pred[v][u]
        except KeyError:
            raise GraphError(f"no edge {u!r} -> {v!r}") from None
        self._restructured()

    def remove_task(self, task: Task) -> None:
        """Remove a task and all incident edges."""
        if task not in self._weight:
            raise GraphError(f"unknown task {task!r}")
        for v in list(self._succ[task]):
            del self._pred[v][task]
        for u in list(self._pred[task]):
            del self._succ[u][task]
        del self._succ[task]
        del self._pred[task]
        del self._weight[task]
        self._restructured()

    @classmethod
    def from_weights(
        cls,
        node_weights: Mapping[Task, float],
        edge_weights: Mapping[Edge, float],
    ) -> "TaskGraph":
        """Build a graph from ``{task: weight}`` and ``{(u, v): weight}`` maps."""
        g = cls()
        for task, w in node_weights.items():
            g.add_task(task, w)
        for (u, v), w in edge_weights.items():
            g.add_edge(u, v, w)
        return g

    def copy(self) -> "TaskGraph":
        """An independent deep copy.

        The copy shares this graph's shape table (:meth:`shape_cached`), so
        a topological order or clan parse computed on either is reused by
        the other until one of them is edited structurally.  Its version
        table starts empty.
        """
        g = TaskGraph()
        g._weight = dict(self._weight)
        g._succ = {u: dict(d) for u, d in self._succ.items()}
        g._pred = {u: dict(d) for u, d in self._pred.items()}
        g._shape_memo = self._shape_memo
        return g

    def subgraph(self, tasks: Iterable[Task]) -> "TaskGraph":
        """The induced subgraph on ``tasks`` (edges internal to the set)."""
        keep = set(tasks)
        unknown = keep - set(self._weight)
        if unknown:
            raise GraphError(f"unknown tasks {sorted(map(repr, unknown))}")
        g = TaskGraph()
        for t in keep:
            g.add_task(t, self._weight[t])
        for u in keep:
            for v, w in self._succ[u].items():
                if v in keep:
                    g.add_edge(u, v, w)
        return g

    def relabeled(self, mapping: Mapping[Task, Task]) -> "TaskGraph":
        """A copy with tasks renamed through ``mapping`` (must be injective)."""
        if len(set(mapping.values())) != len(mapping):
            raise GraphError("relabel mapping is not injective")
        g = TaskGraph()
        for t, w in self._weight.items():
            g.add_task(mapping.get(t, t), w)
        for u, d in self._succ.items():
            for v, w in d.items():
                g.add_edge(mapping.get(u, u), mapping.get(v, v), w)
        return g

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self._weight)

    @property
    def n_edges(self) -> int:
        return sum(len(d) for d in self._succ.values())

    def __len__(self) -> int:
        return len(self._weight)

    def __contains__(self, task: Task) -> bool:
        return task in self._weight

    def __iter__(self) -> Iterator[Task]:
        return iter(self._weight)

    def tasks(self) -> list[Task]:
        """All tasks, in insertion order."""
        return list(self._weight)

    def edges(self) -> list[Edge]:
        """All edges as (u, v) pairs."""
        return [(u, v) for u, d in self._succ.items() for v in d]

    def weight(self, task: Task) -> float:
        """Execution weight of ``task``."""
        try:
            return self._weight[task]
        except KeyError:
            raise GraphError(f"unknown task {task!r}") from None

    def edge_weight(self, u: Task, v: Task) -> float:
        """Communication cost of edge ``u -> v``."""
        try:
            return self._succ[u][v]
        except KeyError:
            raise GraphError(f"no edge {u!r} -> {v!r}") from None

    def has_edge(self, u: Task, v: Task) -> bool:
        """Whether the edge ``u -> v`` exists."""
        return v in self._succ.get(u, ())

    def successors(self, task: Task) -> list[Task]:
        """Direct successors of ``task``."""
        try:
            return list(self._succ[task])
        except KeyError:
            raise GraphError(f"unknown task {task!r}") from None

    def predecessors(self, task: Task) -> list[Task]:
        """Direct predecessors of ``task``."""
        try:
            return list(self._pred[task])
        except KeyError:
            raise GraphError(f"unknown task {task!r}") from None

    def out_edges(self, task: Task) -> Mapping[Task, float]:
        """``{successor: edge weight}`` as a **read-only view**.

        The view is zero-copy (schedulers call this once per edge-relaxation
        on hot paths); writes raise ``TypeError``.  Call ``dict(...)`` on the
        result if you need a mutable copy.  The view reflects later graph
        mutations — snapshot it if you mutate while iterating.
        """
        return MappingProxyType(self._succ[task])

    def in_edges(self, task: Task) -> Mapping[Task, float]:
        """``{predecessor: edge weight}`` as a **read-only view**.

        Same contract as :meth:`out_edges`.
        """
        return MappingProxyType(self._pred[task])

    def out_degree(self, task: Task) -> int:
        """Number of outgoing edges."""
        return len(self._succ[task])

    def in_degree(self, task: Task) -> int:
        """Number of incoming edges."""
        return len(self._pred[task])

    def sources(self) -> list[Task]:
        """Tasks with no predecessors."""
        return [t for t in self._weight if not self._pred[t]]

    def sinks(self) -> list[Task]:
        """Tasks with no successors."""
        return [t for t in self._weight if not self._succ[t]]

    def serial_time(self) -> float:
        """Total work — execution time on a single processor (paper section 4).

        Memoized per graph version under ``"serial_time"`` — the key
        :func:`repro.core.batch.batch_analyze` primes with a per-graph
        Python left-fold sum, bitwise-identical to this one.
        """
        return self.cached("serial_time", lambda: sum(self._weight.values()))

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def topological_order(self) -> list[Task]:
        """Kahn's algorithm; raises :class:`CycleError` on a cycle.

        Deterministic for a given construction order (insertion order of the
        underlying dicts is preserved).  The order reads no weight, so it is
        computed once per shape and memoized in the shape table (kept by
        weight-only edits and shared with copies); callers receive a fresh
        list each call.
        """
        return list(self.shape_cached("topological_order", self._topological_order))

    def _topological_order(self) -> list[Task]:
        indeg = {t: len(self._pred[t]) for t in self._weight}
        ready = [t for t in self._weight if indeg[t] == 0]
        order: list[Task] = []
        while ready:
            t = ready.pop()
            order.append(t)
            for v in self._succ[t]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
        if len(order) != len(self._weight):
            raise CycleError("graph contains a cycle")
        return order

    def is_dag(self) -> bool:
        """Whether the graph is acyclic."""
        try:
            self.topological_order()
        except CycleError:
            return False
        return True

    def validate(self) -> None:
        """Check structural invariants; raise :class:`GraphError` if violated.

        A successful validation is memoized per graph version, so repeated
        validation of an unmutated graph (every scheduler validates its
        input) is O(1) after the first call.  Each version runs the edge
        check; its acyclicity check reads the shape-memoized order.
        """
        self.cached("validated", self._validate)

    def _validate(self) -> bool:
        for u, d in self._succ.items():
            for v, w in d.items():
                if self._pred[v].get(u) != w:
                    raise GraphError(f"succ/pred mismatch on edge {u!r}->{v!r}")
        n_back = sum(len(d) for d in self._pred.values())
        if n_back != self.n_edges:
            raise GraphError("succ/pred edge count mismatch")
        self.topological_order()  # raises CycleError on cycles
        return True

    def ancestors(self, task: Task) -> set[Task]:
        """All tasks with a directed path to ``task`` (excluding itself)."""
        seen: set[Task] = set()
        stack = list(self._pred[task])
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(self._pred[u])
        return seen

    def descendants(self, task: Task) -> set[Task]:
        """All tasks reachable from ``task`` (excluding itself)."""
        seen: set[Task] = set()
        stack = list(self._succ[task])
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(self._succ[u])
        return seen

    def transitive_reduction(self) -> "TaskGraph":
        """A copy with every redundant edge removed.

        An edge ``u -> v`` is redundant when a longer directed path from
        ``u`` to ``v`` exists.  Weights of surviving edges are preserved.
        """
        g = self.copy()
        for u in self.tasks():
            for v in self.successors(u):
                g.remove_edge(u, v)
                if v not in g.descendants(u):
                    g.add_edge(u, v, self.edge_weight(u, v))
        return g

    # ------------------------------------------------------------------
    # interop / serialization
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.DiGraph:
        """A networkx DiGraph with ``weight`` node/edge attributes."""
        import networkx as nx

        g = nx.DiGraph()
        for t, w in self._weight.items():
            g.add_node(t, weight=w)
        for u, d in self._succ.items():
            for v, w in d.items():
                g.add_edge(u, v, weight=w)
        return g

    @classmethod
    def from_networkx(cls, g: nx.DiGraph, default_weight: float = 1.0) -> "TaskGraph":
        """Build from a networkx DiGraph (``weight`` attributes, defaulted)."""
        tg = cls()
        for t, data in g.nodes(data=True):
            tg.add_task(t, data.get("weight", default_weight))
        for u, v, data in g.edges(data=True):
            tg.add_edge(u, v, data.get("weight", 0.0))
        return tg

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable description.

        Tasks must be built from str/int/tuple; tuples are stored as lists
        and restored by :meth:`from_dict` (JSON has no tuple type).
        """
        return {
            "tasks": [[t, w] for t, w in self._weight.items()],
            "edges": [[u, v, w] for u, d in self._succ.items() for v, w in d.items()],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TaskGraph":
        def thaw(t: Any) -> Task:
            return tuple(thaw(x) for x in t) if isinstance(t, list) else t

        g = cls()
        for t, w in data["tasks"]:
            g.add_task(thaw(t), w)
        for u, v, w in data["edges"]:
            g.add_edge(thaw(u), thaw(v), w)
        return g

    def to_dot(self) -> str:
        """Graphviz dot source with weights as labels."""
        lines = ["digraph pdg {"]
        for t, w in self._weight.items():
            lines.append(f'  "{t}" [label="{t}\\n{w:g}"];')
        for u, d in self._succ.items():
            for v, w in d.items():
                lines.append(f'  "{u}" -> "{v}" [label="{w:g}"];')
        lines.append("}")
        return "\n".join(lines)

    def __getstate__(self) -> dict[str, Any]:
        """Pickle only the primary structure.

        The predecessor map is derivable and both memo tables are
        process-local state, so they are dropped (an unpickled graph starts
        fresh tables) — this keeps the payloads the parallel suite runner
        ships to worker processes minimal.
        """
        return {"weight": self._weight, "succ": self._succ}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._weight = state["weight"]
        self._succ = state["succ"]
        self._pred = {t: {} for t in self._weight}
        for u, d in self._succ.items():
            for v, w in d.items():
                self._pred[v][u] = w
        self._version = 0
        self._version_memo = {}
        self._shape_memo = {}
        self._cache_lock = threading.RLock()

    def __repr__(self) -> str:
        return f"TaskGraph(n_tasks={self.n_tasks}, n_edges={self.n_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskGraph):
            return NotImplemented
        return self._weight == other._weight and self._succ == other._succ

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("TaskGraph is unhashable (mutable)")


def _check_weight(w: float, what: str) -> None:
    try:
        wf = float(w)
    except (TypeError, ValueError):
        raise GraphError(f"{what} must be a number, got {w!r}") from None
    if wf < 0 or wf != wf or wf in (float("inf"), float("-inf")):
        raise GraphError(f"{what} must be finite and non-negative, got {w!r}")
