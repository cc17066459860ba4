"""CLANS — clan-based graph decomposition scheduling (McCreary & Gill).

Appendix A.5 / Figures 15–16 of the paper.  The algorithm:

1. Parse the PDG into the clan hierarchy (:mod:`repro.clans`): the root is
   the whole graph, leaves are tasks, internal nodes are LINEAR /
   INDEPENDENT / PRIMITIVE clans.
2. Traverse the tree bottom-up assigning costs and making *local decisions
   at linear clans*: for each independent child, pick the best sequence of
   clustering and concurrency for its children.  Executing children
   serially costs the sum of their costs and no communication; executing a
   child away from the local processor adds its incoming and outgoing
   message costs to its path (the paper's Figure 16 worked example:
   ``5 + 20 + 4`` for node 2).  We evaluate candidate processor counts
   ``k`` with a small list schedule of the clan's *quotient* (children as
   macro-tasks) and keep the cheapest — ``k = 1`` is full serialization,
   ``k = n`` full parallelization.
3. Because serialization is always a candidate, a parallelization that
   would retard execution is rejected — the paper's "speedup check at
   every linear node", the reason CLANS never produces speedup < 1
   (Tables 2/6/10).  A final *macro* check compares the simulated makespan
   against the serial time and falls back to the single-processor schedule
   if the cost estimates were ever too optimistic.

**Primitive clans.**  The paper's generator modifies graphs until the parse
tree no longer matches the original series-parallel tree, so primitive
clans occur; McCreary handles them by grouping siblings into pseudo-clans.
The quotient mini-schedule covers this uniformly: for an INDEPENDENT clan
the quotient is an antichain and the mini-schedule reduces to LPT packing;
for a PRIMITIVE clan it respects the quotient's precedence edges (the
relation between sibling clans is uniform, so one member edge decides).
See DESIGN.md section 3.

**On the compiled index.**  The parse hands every clan over as a vertex
bitmask (:class:`~repro.clans.parse_tree.ClanNode`), and everything here
runs on the graph's :class:`~repro.core.kernels.GraphIndex`: leaf costs
come from its weight vector, each quotient from the children's masks and
its ``pred_rows``/``succ_rows`` through one owner array per graph, and the
clusters are id lists timed by ``simulate_ordered_idx``.  The parse is still
reached through :func:`~repro.clans.decomposition.decompose`, by module
attribute, so anything that wraps that function sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from ..clans.decomposition import decompose
from ..clans.parse_tree import ClanKind, ClanNode
from ..core.kernels import GraphIndex, graph_index, simulate_ordered_idx
from ..core.schedule import Schedule
from ..core.simulator import _count_run, serial_schedule
from ..core.taskgraph import TaskGraph
from ..obs.metrics import get_registry
from .base import Scheduler, register

__all__ = ["ClansScheduler", "GroupDecision"]


@dataclass
class GroupDecision:
    """Outcome of one clustering-vs-concurrency decision.

    ``groups`` holds child indices in execution order; ``groups[0]`` runs
    on the local processor (no external communication), every other group
    gets a processor of its own.
    """

    groups: list[list[int]]
    cost: float

    @property
    def parallelized(self) -> bool:
        return len(self.groups) > 1


@dataclass
class _Quotient:
    """A clan's children viewed as macro-tasks with uniform relations."""

    costs: list[float]  # decided cost per child
    comm_in: list[float]  # heaviest direct message from outside the clan
    comm_out: list[float]  # heaviest direct message to outside the clan
    succ: list[dict[int, float]]  # quotient edges with heaviest member edge
    pred: list[dict[int, float]]
    #: static priority: communication-free longest path to a quotient sink
    blevel: list[float] = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.costs)
        blevel = [0.0] * n
        indeg_out = [len(self.succ[i]) for i in range(n)]
        stack = [i for i in range(n) if indeg_out[i] == 0]
        while stack:
            i = stack.pop()
            blevel[i] = self.costs[i] + max(
                (blevel[j] for j in self.succ[i]), default=0.0
            )
            for p in self.pred[i]:
                indeg_out[p] -= 1
                if indeg_out[p] == 0:
                    stack.append(p)
        self.blevel = blevel


@dataclass
class _Context:
    """Per-invocation scratch state on the graph's compiled index."""

    gi: GraphIndex
    #: quotient child of each task id, offset by ``base``: the clan being
    #: decided numbers its children ``base``, ``base + 1``, ...  Bases only
    #: grow, and every clan is decided after the clans inside it, so a task
    #: outside the current clan holds a value below ``base``.
    owner: list[int]
    base: int = 0
    decisions: dict[int, GroupDecision] = field(default_factory=dict)
    clusters: list[list[int]] = field(default_factory=lambda: [[]])


@register
class ClansScheduler(Scheduler):
    """Clan-decomposition scheduling with per-clan speedup checks."""

    name = "CLANS"

    def __init__(self, *, speedup_check: bool = True) -> None:
        #: With the check off, every non-linear clan is fully parallelized
        #: and the macro fallback is skipped — the ablation showing why
        #: CLANS never retards (DESIGN.md section 8).
        self.speedup_check = speedup_check
        #: Set by each schedule() call: the parse tree and whether the macro
        #: serial fallback fired (introspection for tests/benchmarks).
        self.last_tree: ClanNode | None = None
        self.last_fallback: bool = False

    def _schedule(self, graph: TaskGraph) -> Schedule:
        tree = decompose(graph)
        self.last_tree = tree
        gi = graph_index(graph)
        ctx = _Context(gi, [-1] * gi.n)
        self._annotate(tree, ctx)
        self._assign(tree, ctx, 0)
        registry = get_registry()
        registry.inc("clans.group_decisions", len(ctx.decisions))
        registry.inc(
            "clans.parallel_decisions",
            sum(1 for d in ctx.decisions.values() if d.parallelized),
        )
        schedule, events = simulate_ordered_idx(gi, ctx.clusters)
        _count_run(events)
        self.last_fallback = False
        if self.speedup_check and schedule.makespan > graph.serial_time() + 1e-9:
            self.last_fallback = True
            registry.inc("clans.serial_fallbacks")
            return serial_schedule(graph)
        return schedule

    # ------------------------------------------------------------------
    # pass 1: bottom-up costs and decisions
    # ------------------------------------------------------------------
    def _annotate(self, node: ClanNode, ctx: _Context) -> float:
        """The decided cost of ``node``; records each grouping decision."""
        if node.is_leaf:
            gi = ctx.gi
            return gi.weights[gi.topo_list[node.mask.bit_length() - 1]]
        if node.kind is ClanKind.LINEAR:
            return sum(self._annotate(c, ctx) for c in node.children)
        # INDEPENDENT or PRIMITIVE: grouping decision on the quotient
        costs = [self._annotate(c, ctx) for c in node.children]
        decision = self._decide(self._quotient(node, costs, ctx))
        ctx.decisions[id(node)] = decision
        return decision.cost

    @staticmethod
    def _quotient(node: ClanNode, costs: list[float], ctx: _Context) -> _Quotient:
        """Macro-task view of ``node``'s children, whose decided costs are
        ``costs``.

        Quotient edge weights take the heaviest member-to-member message
        (concurrent messages overlap under model assumption 4, so the
        heaviest one bounds the added delay — the estimate the paper's
        Figure 16 example uses).  Each child's task ids come from its mask
        and are stamped in ``ctx.owner``, so one read per edge end tells
        which child, if any, holds it.
        """
        gi = ctx.gi
        topo = gi.topo_list
        owner = ctx.owner
        base = ctx.base
        n = len(node.children)
        ctx.base = base + n
        members: list[list[int]] = []
        for i, c in enumerate(node.children):
            mark = base + i
            ids = []
            m = c.mask
            while m:
                low = m & -m
                t = topo[low.bit_length() - 1]
                owner[t] = mark
                ids.append(t)
                m ^= low
            members.append(ids)
        pred_rows, succ_rows = gi.pred_rows, gi.succ_rows
        comm_in = [0.0] * n
        comm_out = [0.0] * n
        succ: list[dict[int, float]] = [{} for _ in range(n)]
        pred: list[dict[int, float]] = [{} for _ in range(n)]
        for i, ids in enumerate(members):
            c_in = c_out = 0.0
            succ_i = succ[i]
            for t in ids:
                for p, w in pred_rows[t]:
                    if w > c_in and owner[p] < base:
                        c_in = w
                for s, w in succ_rows[t]:
                    j = owner[s] - base
                    if j < 0:
                        if w > c_out:
                            c_out = w
                    elif j != i and w > succ_i.get(j, -1.0):
                        succ_i[j] = w
                        pred[j][i] = w
            comm_in[i] = c_in
            comm_out[i] = c_out
        return _Quotient(costs, comm_in, comm_out, succ, pred)

    def _decide(self, q: _Quotient) -> GroupDecision:
        """Best grouping of a clan's quotient ``q`` onto ``k`` processors.

        For each candidate ``k`` the quotient is list-scheduled onto ``k``
        processors (processor 0 is the *local* one: it holds the clan's
        surrounding context, so it pays no external communication; others
        pay ``comm_in`` before their first input-consuming child and
        ``comm_out`` after their last producing child).  The cheapest ``k``
        wins; the scan stops once adding processors stops helping (the
        makespan-vs-k curve is effectively convex), with full
        parallelization always evaluated.  With the speedup check disabled
        the grouping is forced fully parallel.

        The quotient, b-levels included, is built once per clan and shared
        by every ``k``.  A schedule that leaves a processor idle ends the
        scan early: processor 0 always
        takes the first child, so ``len(groups) < k`` means processor
        ``k - 1`` was never opened, and with more processors every step
        would scan and choose exactly as it did (see :meth:`_mini_schedule`).
        Every larger ``k``, full parallelization included, gives this same
        schedule, which cannot beat ``best``.
        """
        n = len(q.costs)
        if not self.speedup_check:
            return self._mini_schedule(q, n)
        best = self._mini_schedule(q, 1)
        stale = 0
        for k in range(2, n):
            cand = self._mini_schedule(q, k)
            if cand.cost < best.cost - 1e-12:
                best = cand
                stale = 0
            else:
                stale += 1
            if len(cand.groups) < k:
                return best
            if stale >= 2:
                break
        if n > 1:
            cand = self._mini_schedule(q, n)
            if cand.cost < best.cost - 1e-12:
                best = cand
        return best

    @staticmethod
    def _mini_schedule(q: _Quotient, k: int) -> GroupDecision:
        """ETF-style list schedule of the quotient on ``k`` processors.

        Each step places the ready child and processor with the smallest
        ``(start, -blevel, processor, child)`` key.  Returns the grouping
        (per-processor child order) and the estimated completion cost
        including external communication of the non-local processors.

        Three facts keep a step cheap without changing its choice:

        * A ready child's predecessors are all placed, so its data-ready
          time on each processor is fixed when it becomes ready and is
          computed once then (:func:`_data_ready`).
        * Only processor 0, the non-local processors in use and the first
          empty one are scanned.  An empty non-local processor holds none
          of a child's predecessors, so every empty one offers the same
          start and the lowest index wins the tie.  Hence the non-local
          processors in use are always ``1..top`` and the first empty one
          is ``top + 1``.
        * A child cannot start on a processor before that processor is
          free, so a processor free no earlier than the child's best start
          so far is passed over without looking up its data-ready time.

        The key is compared field by field, with no tuple built per child.

        On one processor every ready child's predecessors finished on it,
        so every ready child starts when it frees and the key collapses to
        ``(-blevel, child)``: :func:`_serial_decision` takes the children
        from a heap instead.
        """
        if k == 1:
            return _serial_decision(q)
        n = len(q.costs)
        blevel, costs, comm_out, succ = q.blevel, q.costs, q.comm_out, q.succ
        proc_free = [0.0] * k
        proc_of = [-1] * n
        finish = [0.0] * n
        groups: list[list[int]] = [[] for _ in range(k)]
        waiting = [len(q.pred[i]) for i in range(n)]
        # ready child -> (start floor on a processor holding none of its
        # predecessors, start floor on processor 0 and on each holder)
        ready = {
            i: _data_ready(q, i, finish, proc_of)
            for i in range(n)
            if waiting[i] == 0
        }
        top = 0
        scan = min(2, k)
        worst = 0.0
        while ready:
            best = -1
            for i, (far, near) in ready.items():
                # earliest start of child i; ties keep the lowest processor
                first = proc_free[0]
                arrival = near[0]
                if arrival > first:
                    first = arrival
                on = 0
                for p in range(1, scan):
                    start = proc_free[p]
                    if start < first:  # else p cannot start i any earlier
                        arrival = near.get(p, far)
                        if arrival > start:
                            start = arrival
                        if start < first:
                            first, on = start, p
                # the smallest (start, -blevel, processor, child) wins
                if best < 0 or first < best_start or (
                    first == best_start
                    and (
                        blevel[i] > blevel[best]
                        or blevel[i] == blevel[best]
                        and (on < best_on or on == best_on and i < best)
                    )
                ):
                    best, best_start, best_on = i, first, on
            i, p = best, best_on
            proc_of[i] = p
            finish[i] = proc_free[p] = best_start + costs[i]
            groups[p].append(i)
            done = finish[i]
            if p:
                done += comm_out[i]
                if p > top:
                    top = p
                    scan = min(top + 2, k)
            if done > worst:
                worst = done
            del ready[i]
            for j in succ[i]:
                waiting[j] -= 1
                if waiting[j] == 0:
                    ready[j] = _data_ready(q, j, finish, proc_of)
        return GroupDecision([g for g in groups if g], worst)

    # ------------------------------------------------------------------
    # pass 2: materialize clusters
    # ------------------------------------------------------------------
    def _assign(self, node: ClanNode, ctx: _Context, cluster: int) -> None:
        if node.is_leaf:
            leaf = ctx.gi.topo_list[node.mask.bit_length() - 1]
            ctx.clusters[cluster].append(leaf)
            return
        if node.kind is ClanKind.LINEAR:
            for child in node.children:
                self._assign(child, ctx, cluster)
            return
        decision = ctx.decisions[id(node)]
        for j, group in enumerate(decision.groups):
            if j == 0:
                target = cluster
            else:
                ctx.clusters.append([])
                target = len(ctx.clusters) - 1
            for i in group:
                self._assign(node.children[i], ctx, target)


def _serial_decision(q: _Quotient) -> GroupDecision:
    """The quotient list-scheduled on the local processor alone.

    Ready children run in ``(-blevel, child)`` order, each starting when
    the previous one finishes.  Costs are non-negative, so the running
    finish is the latest finish: the decision's cost.
    """
    blevel, costs, succ = q.blevel, q.costs, q.succ
    waiting = [len(p) for p in q.pred]
    ready = [(-blevel[i], i) for i, w in enumerate(waiting) if not w]
    heapify(ready)
    order: list[int] = []
    now = 0.0
    while ready:
        i = heappop(ready)[1]
        order.append(i)
        now += costs[i]
        for j in succ[i]:
            waiting[j] -= 1
            if not waiting[j]:
                heappush(ready, (-blevel[j], j))
    return GroupDecision([order] if order else [], now)


def _data_ready(
    q: _Quotient, i: int, finish: list[float], proc_of: list[int]
) -> tuple[float, dict[int, float]]:
    """Earliest start of quotient child ``i`` by its inputs, per processor.

    All of ``i``'s predecessors are placed.  A message costs nothing
    between children on the same processor, and a non-local processor also
    waits ``comm_in`` for the clan's external input.  Returns the floor on
    a non-local processor that holds none of the predecessors, and a dict
    of the floors on processor 0 and on every processor that holds one.

    One pass over the predecessors gives the first floor, processor 0's and
    the set of holders; each holder other than processor 0 takes one more.
    """
    pred = q.pred[i].items()
    far = comm_in = q.comm_in[i]
    local = 0.0  # the local processor waits for no external input
    near: dict[int, float] = {}
    for j, w in pred:
        arrival = finish[j] + w
        if arrival > far:
            far = arrival
        if proc_of[j]:
            near[proc_of[j]] = comm_in  # its base floor
        else:
            arrival = finish[j] + 0.0
        if arrival > local:
            local = arrival
    for p in near:
        start = near[p]
        for j, w in pred:
            arrival = finish[j] + (w if proc_of[j] != p else 0.0)
            if arrival > start:
                start = arrival
        near[p] = start
    near[0] = local
    return far, near
